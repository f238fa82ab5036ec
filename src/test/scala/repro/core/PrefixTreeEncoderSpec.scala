package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TocViews._
import scala.collection.mutable

/** Reproduces the paper's running example: Figure 3's table B encoded by
  * Algorithm 1, checked step-for-step against Table 2.
  */
class PrefixTreeEncoderSpec extends AnyFunSuite {

  // Figure 3's sparse encoded table B, with the paper's 1-based columns.
  def tableB: Array[Array[ColValue]] = Fig3.tableB

  lazy val encoded = PrefixTreeEncoder.encode(sparse(tableB))
  // C' rebuilds Algorithm 1's final tree: same node numbers, keys and parents.
  lazy val tree = TocViews.tree(encoded)

  test("Table 2 phase I: tree initialized with the 5 unique pairs, in order") {
    assert(encoded.i.pairs.toSeq == Seq(
      ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0), ColValue(4, 1.4), ColValue(2, 1.1)))
  }

  test("Figure 3: encoded table D matches") {
    assert(encoded.d.map(_.toSeq).toSeq == Seq(
      Seq(1, 2, 3, 4), Seq(6, 3), Seq(5, 8), Seq(6)))
  }

  test("Table 2: nodes 6-10 added in the documented order with documented sequences") {
    assert(tree.size == 11)
    assert(tree.sequence(6) == List(ColValue(1, 1.1), ColValue(2, 2.0)))
    assert(tree.sequence(7) == List(ColValue(2, 2.0), ColValue(3, 3.0)))
    assert(tree.sequence(8) == List(ColValue(3, 3.0), ColValue(4, 1.4)))
    assert(tree.sequence(9) == List(ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0)))
    assert(tree.sequence(10) == List(ColValue(2, 1.1), ColValue(3, 3.0)))
  }

  test("Table 2: LongestMatchFromTree returns the documented matches for R2") {
    // Appending R2 and R4 again matches each against the final tree. R2's
    // prefix [1:1.1, 2:2, 3:3] is node 9 (Table 2 documents the
    // mid-encoding state, where the match was node 6); R4 = [1:1.1, 2:2]
    // is node 6 exactly (Table 2's last row). No new pair enters I.
    val enc = PrefixTreeEncoder.encode(sparse(tableB :+ tableB(1) :+ tableB(3)))
    assert(enc.i.length == 5)
    assert(enc.d.takeRight(2).map(_.toSeq).toSeq == Seq(Seq(9), Seq(6)))
  }

  test("Table 3: tuple boundaries preserved — each tuple encoded separately") {
    // The number of code vectors equals the number of tuples.
    assert(encoded.d.length == tableB.length)
    // Decoding each code vector independently gives back exactly that tuple.
    val decoded = TocViews.decode(encoded)
    decoded.zip(tableB).foreach { case (got, want) => assert(got.toSeq == want.toSeq) }
  }

  test("matches are always at least one pair long (phase I guarantee)") {
    encoded.d.zipWithIndex.foreach { case (codes, r) =>
      assert(codes.nonEmpty == tableB(r).nonEmpty)
    }
  }

  test("all-zero tuple encodes to an empty code vector") {
    val withEmpty = tableB :+ Array.empty[ColValue]
    val enc = PrefixTreeEncoder.encode(sparse(withEmpty))
    assert(enc.d.last.isEmpty)
    assert(TocViews.decode(enc).last.isEmpty)
  }

  test("single-tuple table: codes cover the tuple") {
    val single = Array(tableB(0))
    val enc = PrefixTreeEncoder.encode(sparse(single))
    assert(TocViews.decode(enc)(0).toSeq == tableB(0).toSeq)
  }

  test("identical tuples collapse to the same single code after warm-up") {
    val rows = Array.fill(10)(tableB(0))
    val enc = PrefixTreeEncoder.encode(sparse(rows))
    // First row pays the learning cost; later rows shrink as the tree grows,
    // and eventually a whole tuple is one code.
    assert(enc.d.head.length == 4)
    assert(enc.d.last.length < enc.d.head.length)
    assert(enc.d.map(_.length).sum < 10 * 4)
    TocViews.decode(enc).foreach(r => assert(r.toSeq == tableB(0).toSeq))
  }

  test("LZW self-reference (KwKwK) case decodes correctly") {
    // A repeated identical pair makes D reference a node in the same step
    // it is created on the decode side (handled by Algorithm 2's ordering).
    val p = ColValue(1, 7.0)
    val rows = Array(Array(p, p, p))
    val enc = PrefixTreeEncoder.encode(sparse(rows))
    assert(enc.d(0).toSeq == Seq(1, 2))
    assert(TocViews.decode(enc)(0).toSeq == Seq(p, p, p))
  }

  test("randomized round-trip over arbitrary pair tables") {
    val rng = new scala.util.Random(777)
    for (trial <- 1 to 50) {
      val rows = Array.fill(rng.nextInt(20) + 1) {
        Array.fill(rng.nextInt(15))(
          ColValue(rng.nextInt(8), (rng.nextInt(5) + 1) * 0.5))
      }
      val enc = PrefixTreeEncoder.encode(sparse(rows))
      val dec = TocViews.decode(enc)
      rows.zip(dec).foreach { case (want, got) =>
        assert(got.toSeq == want.toSeq, s"trial $trial")
      }
    }
  }

  test("linear complexity invariant: code count never exceeds pair count") {
    val rng = new scala.util.Random(99)
    val rows = Array.fill(50)(Array.fill(rng.nextInt(30))(
      ColValue(rng.nextInt(10), (rng.nextInt(4) + 1).toDouble)))
    val enc = PrefixTreeEncoder.encode(sparse(rows))
    enc.d.zip(rows).foreach { case (codes, row) => assert(codes.length <= row.length) }
  }

  test("phase I's dictionary and value indexes equal ValueIndex over I's values (ScalaCheck)") {
    // Few columns, so they repeat within and across tuples; values include
    // -0.0, two NaN payloads and ±Inf.
    val value = Gen.frequency(
      3 -> Gen.oneOf(0.5, 1.5, -2.0, -0.0, Double.NaN,
        java.lang.Double.longBitsToDouble(0x7ff8000000000001L), Double.PositiveInfinity, Double.NegativeInfinity),
      1 -> Gen.choose(-4.0, 4.0))
    val pair = for (c <- Gen.choose(0, 5); v <- value) yield ColValue(c, v)
    val tables = Gen.listOf(Gen.listOf(pair).map(_.toArray)).map(_.toArray)
    def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val prop = Prop.forAllNoShrink(tables) { b =>
      // I: each distinct (column, raw bits) pair, in first-occurrence order.
      val firstLayer = mutable.LinkedHashMap.empty[(Int, Long), ColValue]
      for (t <- b; cv <- t) firstLayer.getOrElseUpdate((cv.col, java.lang.Double.doubleToRawLongBits(cv.value)), cv)
      val (dict, valIdx) = ValueIndex(firstLayer.values.map(_.value).toArray)
      val i = PrefixTreeEncoder.encode(sparse(b)).i
      i.cols.toSeq == firstLayer.values.map(_.col).toSeq && i.valIdx.toSeq == valIdx.toSeq && bits(i.dict) == bits(dict)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }
}
