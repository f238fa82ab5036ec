package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** The contract of [[LongIntTable]], the write path's table of one-long
  * keys (value ids and Algorithm 1's later children; [[PairTable]] holds
  * the first layer): lookup-or-insert, growth and [[LongIntTable.clear]].
  */
class LongIntTableSpec extends AnyFunSuite {

  /** Keys with repeats; many share their low 32 bits, and the extremes are in. */
  val keys: Gen[List[Long]] = Gen.listOf(Gen.frequency(
    3 -> Gen.choose(0L, 300L),
    2 -> Gen.choose(0L, 300L).map(_ << 32),
    1 -> Gen.oneOf(Long.MinValue, Long.MaxValue, -1L),
    1 -> Gen.choose(Long.MinValue, Long.MaxValue)))

  /** What `putIfAbsent(key, index + 1)` returns for each key in turn. */
  def fill(t: LongIntTable, ks: Seq[Long]): Seq[Int] = ks.zipWithIndex.map { case (k, i) => t.putIfAbsent(k, i + 1) }

  def check(prop: Prop): Unit = {
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("putIfAbsent returns 0 exactly once per key, then the value first stored (ScalaCheck)") {
    check(Prop.forAllNoShrink(keys) { ks =>
      val t = new LongIntTable
      val got = fill(t, ks)
      val firstAt = ks.zipWithIndex.groupBy(_._1).map { case (k, occ) => k -> occ.map(_._2).min }
      val want = ks.zipWithIndex.map { case (k, i) => if (firstAt(k) == i) 0 else firstAt(k) + 1 }
      (got == want) :| s"got $got" && (t.size == firstAt.size) :| "size"
    })
  }

  test("after clear() every old key is absent and size is 0 (ScalaCheck)") {
    check(Prop.forAllNoShrink(keys) { ks =>
      val t = new LongIntTable
      fill(t, ks)
      t.clear()
      (t.size == 0) :| "size after clear" &&
        ks.distinct.forall(k => t.putIfAbsent(k, 1) == 0) :| "an old key survived clear()"
    })
  }

  test("a cleared table refills exactly as a fresh one, growing past its old size or not (ScalaCheck)") {
    // Each fill adds 0 to 3000 distinct keys, so the second runs from far
    // smaller than the first, on the kept slots, to far larger, across
    // further doublings.
    def plus(ks: List[Long], n: Int): Seq[Long] = ks ++ (1L to n).map(_ * 7919)
    val fills = for (a <- keys; m <- Gen.choose(0, 3000); b <- keys; n <- Gen.choose(0, 3000)) yield (plus(a, m), plus(b, n))
    check(Prop.forAllNoShrink(fills) { case (before, after) =>
      val reused = new LongIntTable
      fill(reused, before)
      reused.clear()
      val fresh = new LongIntTable
      (fill(reused, after) == fill(fresh, after)) :| "refill differs" && (reused.size == fresh.size) :| "size"
    })
  }
}
