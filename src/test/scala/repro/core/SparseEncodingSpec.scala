package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TocViews._
import repro.linalg.{DenseMatrix, TestMatrices}

class SparseEncodingSpec extends AnyFunSuite {

  /** The original table A of Figure 3 (0-based columns internally). */
  val figure3A: DenseMatrix = TestMatrices.fromRows(Seq(
    Seq(1.1, 2.0, 3.0, 1.4),
    Seq(1.1, 2.0, 3.0, 0.0),
    Seq(0.0, 1.1, 3.0, 1.4),
    Seq(1.1, 2.0, 0.0, 0.0)))

  test("Figure 3: A → B drops zeros and prefixes column indexes") {
    val b = SparseEncoder.encode(figure3A)
    assert(b(0).pairs.toSeq == Seq(ColValue(0, 1.1), ColValue(1, 2.0), ColValue(2, 3.0), ColValue(3, 1.4)))
    assert(b(1).pairs.toSeq == Seq(ColValue(0, 1.1), ColValue(1, 2.0), ColValue(2, 3.0)))
    assert(b(2).pairs.toSeq == Seq(ColValue(1, 1.1), ColValue(2, 3.0), ColValue(3, 1.4)))
    assert(b(3).pairs.toSeq == Seq(ColValue(0, 1.1), ColValue(1, 2.0)))
  }

  test("encode/decode round-trips Figure 3's table") {
    assert(TocViews.decodeSparse(SparseEncoder.encode(figure3A), 4) == figure3A)
  }

  test("all-zero rows encode to empty pair sequences") {
    val m = DenseMatrix.zeros(3, 5)
    val b = SparseEncoder.encode(m)
    assert(b.forall(_.length == 0))
    assert(TocViews.decodeSparse(b, 5) == m)
  }

  test("fully dense rows keep every column") {
    val m = TestMatrices.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    assert(SparseEncoder.encode(m).forall(_.length == 2))
  }

  test("column indexes are strictly increasing within a row") {
    val m = DenseMatrix.rand(20, 30, seed = 5, sparsity = 0.4)
    SparseEncoder.encode(m).foreach { row =>
      assert(row.cols.toSeq == row.cols.toSeq.sorted)
      assert(row.cols.distinct.length == row.length)
    }
  }

  test("randomized round-trip over varying sparsity") {
    for (sp <- Seq(0.0, 0.05, 0.3, 0.7, 1.0); seed <- 1 to 5) {
      val m = DenseMatrix.rand(17, 23, seed, sp)
      assert(TocViews.decodeSparse(SparseEncoder.encode(m), 23) == m, s"sp=$sp seed=$seed")
    }
  }

  test("encode keeps exactly the cells whose raw bits are non-zero, in column order (ScalaCheck)") {
    // +0.0 is the only zero; -0.0 (bits 0x8000000000000000) and every other
    // special value are kept.
    val cell = Gen.frequency(
      6 -> Gen.const(0.0),
      4 -> Gen.oneOf(-0.0, Double.NaN, java.lang.Double.longBitsToDouble(0x7ff8000000000001L),
        java.lang.Double.longBitsToDouble(0xfff0000000000003L), Double.MinPositiveValue, -Double.MinPositiveValue,
        Double.PositiveInfinity, Double.NegativeInfinity),
      3 -> Gen.choose(-1e6, 1e6))
    val batches = for {
      rows <- Gen.choose(0, 12)
      cols <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 40))
      data <- Gen.listOfN(rows, Gen.frequency(
        1 -> Gen.const(Array.fill(cols)(0.0)),
        1 -> Gen.containerOfN[Array, Double](cols, Gen.oneOf(-0.0, 1.0, Double.NaN, Double.MinPositiveValue)),
        4 -> Gen.containerOfN[Array, Double](cols, cell)))
    } yield new DenseMatrix(rows, cols, data.toArray.flatten)
    val prop = Prop.forAllNoShrink(batches) { a =>
      val b = SparseEncoder.encode(a)
      b.length == a.rows && (0 until a.rows).forall { i =>
        val kept = (0 until a.cols).filter(j => java.lang.Double.doubleToRawLongBits(a(i, j)) != 0L)
        b(i).cols.toSeq == kept &&
          b(i).vals.toSeq.map(java.lang.Double.doubleToRawLongBits) == kept.map(j => java.lang.Double.doubleToRawLongBits(a(i, j)))
      }
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }
}
