package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TocViews._

/** Algorithm 2 checked against Table 4 (the example C') and the §4
  * identities.
  */
class DecodeTreeSpec extends AnyFunSuite {

  def tableB: Array[Array[ColValue]] = Fig3.tableB

  test("Table 4: C' reproduces the documented keys exactly") {
    val enc = PrefixTreeEncoder.encode(sparse(tableB))
    val c = TocViews.tree(enc)
    assert(c.size == 11)
    val wantKeys = Seq(null,
      ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0), ColValue(4, 1.4), ColValue(2, 1.1),
      ColValue(2, 2.0), ColValue(3, 3.0), ColValue(4, 1.4), ColValue(3, 3.0), ColValue(3, 3.0))
    assert(c.keys.toSeq == wantKeys)
  }

  test("Table 4: C' reproduces the documented parent indexes exactly") {
    val enc = PrefixTreeEncoder.encode(sparse(tableB))
    val c = TocViews.tree(enc)
    assert(c.parents.toSeq == Seq(-1, 0, 0, 0, 0, 0, 1, 2, 3, 6, 5))
  }

  test("|C'| = 1 + |I| + sum(len(D[i]) - 1) — the §4.6 size identity") {
    val enc = PrefixTreeEncoder.encode(sparse(tableB))
    val c = TocViews.tree(enc)
    val expected = 1 + enc.i.length + enc.d.map(d => math.max(0, d.length - 1)).sum
    assert(c.size == expected)
  }

  test("empty table yields a root-only tree") {
    val c = TocViews.tree(PrefixTreeEncoder.encode(Array.empty))
    assert(c.size == 1)
    assert(c.parent(0) == -1)
  }

  test("Equation 6: seq(i) = key(i) appended to seq(parent(i))") {
    val enc = PrefixTreeEncoder.encode(sparse(tableB))
    val c = TocViews.tree(enc)
    for (i <- 1 until c.size)
      assert(c.sequence(i) == c.sequence(c.parent(i)) :+ c.key(i), s"node $i")
  }
}
