package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** The contract of [[PairTable]], keyed on (column, raw value bits) for
  * Algorithm 1's first layer and on (0, a value's bits) for
  * [[ValueIndex]]: lookup-or-insert, growth and [[PairTable.clear]].
  */
class PairTableSpec extends AnyFunSuite {

  def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  /** Columns from a small pool, so keys share them, and the same pool
    * shifted left by 20, as in `PrefixTreeEncoderSpec.largeTables`; the
    * extremes are in.
    */
  val col: Gen[Int] = Gen.frequency(
    4 -> Gen.choose(0, 40),
    2 -> Gen.choose(0, 40).map(_ << 20),
    1 -> Gen.oneOf(Int.MinValue, Int.MaxValue, -1))

  /** Value bits from a small pool, so keys share them: small integers and
    * high words alone (low 32 bits all zero), `±0.0`, two NaN payloads,
    * and any long.
    */
  val valueBits: Gen[Long] = Gen.frequency(
    3 -> Gen.choose(1, 30).map(k => bits(k * 0.5)),
    2 -> Gen.choose(1L, 300L).map(_ << 32),
    2 -> Gen.oneOf(bits(0.0), bits(-0.0), bits(Double.NaN), 0x7ff8000000000001L, Long.MinValue, Long.MaxValue),
    1 -> Gen.choose(Long.MinValue, Long.MaxValue))

  /** [[ValueIndex]]'s keys: any long under column 0, many sharing their
    * low 32 bits, and the extremes.
    */
  val columnZero: Gen[(Int, Long)] = Gen.frequency(
    3 -> Gen.choose(0L, 300L),
    2 -> Gen.choose(0L, 300L).map(_ << 32),
    1 -> Gen.oneOf(Long.MinValue, Long.MaxValue, -1L),
    1 -> Gen.choose(Long.MinValue, Long.MaxValue)).map((0, _))

  /** Lists of first-layer keys, or of first-layer and column-0 keys mixed. */
  val keys: Gen[List[(Int, Long)]] = {
    val pair = Gen.zip(col, valueBits)
    Gen.oneOf(Gen.listOf(pair), Gen.listOf(Gen.oneOf(pair, columnZero)))
  }

  /** Lists of column-0 keys alone, as [[ValueIndex]] fills its table. */
  val columnZeroKeys: Gen[List[(Int, Long)]] = Gen.listOf(columnZero)

  /** What `putIfAbsent(col, bits, index + 1)` returns for each key in turn. */
  def fill(t: PairTable, ks: Seq[(Int, Long)]): Seq[Int] =
    ks.zipWithIndex.map { case ((c, b), i) => t.putIfAbsent(c, b, i + 1) }

  def check(prop: Prop): Unit = {
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  /** `putIfAbsent` returns 0 exactly once per key, then the value first stored. */
  def lookup(keys: Gen[List[(Int, Long)]]): Unit =
    check(Prop.forAllNoShrink(keys) { ks =>
      val t = new PairTable
      val got = fill(t, ks)
      val firstAt = ks.zipWithIndex.groupBy(_._1).map { case (k, occ) => k -> occ.map(_._2).min }
      val want = ks.zipWithIndex.map { case (k, i) => if (firstAt(k) == i) 0 else firstAt(k) + 1 }
      (got == want) :| s"got $got" && (t.size == firstAt.size) :| "size"
    })

  /** After `clear()` every old key is absent and `size` is 0. */
  def cleared(keys: Gen[List[(Int, Long)]]): Unit =
    check(Prop.forAllNoShrink(keys) { ks =>
      val t = new PairTable
      fill(t, ks)
      t.clear()
      (t.size == 0) :| "size after clear" &&
        ks.distinct.forall { case (c, b) => t.putIfAbsent(c, b, 1) == 0 } :| "an old key survived clear()"
    })

  /** A cleared table refills exactly as a fresh one. Each fill adds 0 to
    * 3000 distinct keys `extra(1)`, `extra(2)`, ..., so the second runs from
    * far smaller than the first, on the kept slots, to far larger, across
    * further doublings. A table that never empties would probe forever, so
    * the property runs under a time bound.
    */
  def refilled(keys: Gen[List[(Int, Long)]], extra: Int => (Int, Long)): Unit = {
    def plus(ks: List[(Int, Long)], n: Int): Seq[(Int, Long)] = ks ++ (1 to n).map(extra)
    val fills = for (a <- keys; m <- Gen.choose(0, 3000); b <- keys; n <- Gen.choose(0, 3000)) yield (plus(a, m), plus(b, n))
    TimeLimit.within() {
      check(Prop.forAllNoShrink(fills) { case (before, after) =>
        val reused = new PairTable
        fill(reused, before)
        reused.clear()
        val fresh = new PairTable
        (fill(reused, after) == fill(fresh, after)) :| "refill differs" && (reused.size == fresh.size) :| "size"
      })
    }
  }

  test("putIfAbsent returns 0 exactly once per key, then the value first stored (ScalaCheck)") {
    lookup(keys)
  }

  test("keys that share a column or share bits are distinct keys") {
    val t = new PairTable
    // One column with 3000 values, then one value in 3000 columns (1 << 20
    // apart), across many doublings.
    val sameCol = (1 to 3000).map(k => (7, bits(k * 0.5)))
    val sameBits = (1 to 3000).map(c => (c << 20, bits(0.5)))
    assert(fill(t, sameCol ++ sameBits).forall(_ == 0))
    assert(t.size == 6000)
    assert(sameCol.zipWithIndex.forall { case ((c, b), i) => t.putIfAbsent(c, b, 9999) == i + 1 })
    assert(sameBits.zipWithIndex.forall { case ((c, b), i) => t.putIfAbsent(c, b, 9999) == 3000 + i + 1 })
  }

  test("-0.0 and 0.0, and two NaN payloads, are four keys; an equal payload is the same key") {
    val t = new PairTable
    val nan2 = 0x7ff8000000000001L
    assert(fill(t, Seq((3, bits(0.0)), (3, bits(-0.0)), (3, bits(Double.NaN)), (3, nan2))) == Seq(0, 0, 0, 0))
    assert(t.putIfAbsent(3, bits(-0.0), 99) == 2)
    assert(t.putIfAbsent(3, bits(Double.NaN), 99) == 3)
    assert(t.putIfAbsent(3, nan2, 99) == 4)
    assert(t.size == 4)
  }

  test("after clear() every old key is absent and size is 0 (ScalaCheck)") {
    cleared(keys)
  }

  test("a cleared table refills exactly as a fresh one, growing past its old size or not (ScalaCheck)") {
    refilled(keys, k => (k % 50, k * 7919L))
  }

  test("column-0 keys: 0 once per key, then the first value (ScalaCheck)") {
    lookup(columnZeroKeys)
  }

  test("column-0 keys: no old key survives clear() (ScalaCheck)") {
    cleared(columnZeroKeys)
  }

  test("column-0 keys: a cleared table refills as a fresh one (ScalaCheck)") {
    refilled(columnZeroKeys, k => (0, k * 7919L))
  }
}
