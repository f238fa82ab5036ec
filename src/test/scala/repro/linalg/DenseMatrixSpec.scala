package repro.linalg

import org.scalatest.funsuite.AnyFunSuite

class DenseMatrixSpec extends AnyFunSuite {

  val a = TestMatrices.fromRows(Seq(Seq(1.0, 2.0, 3.0), Seq(4.0, 5.0, 6.0)))

  test("shape validation rejects mismatched data") {
    intercept[IllegalArgumentException](new DenseMatrix(2, 2, Array(1.0)))
  }

  test("element access and update are row-major") {
    assert(a(0, 2) == 3.0 && a(1, 0) == 4.0)
    val b = DenseMatrix.zeros(2, 2)
    b(1, 0) = 9.0
    assert(b.data.toSeq == Seq(0.0, 0.0, 9.0, 0.0))
  }

  test("row and col extractors") {
    assert(a.row(1).toSeq == Seq(4.0, 5.0, 6.0))
    assert(a.col(1).toSeq == Seq(2.0, 5.0))
  }

  test("timesVector") {
    assert(a.timesVector(Array(1.0, 0.0, -1.0)).toSeq == Seq(-2.0, -2.0))
  }

  test("vectorTimes") {
    assert(a.vectorTimes(Array(1.0, -1.0)).toSeq == Seq(-3.0, -3.0, -3.0))
  }

  test("timesMatrix against a hand computation") {
    val m = TestMatrices.fromRows(Seq(Seq(1.0, 0.0), Seq(0.0, 1.0), Seq(1.0, 1.0)))
    assert(a.timesMatrix(m).data.toSeq == Seq(4.0, 5.0, 10.0, 11.0))
  }

  test("leftTimes is m·this") {
    val m = TestMatrices.fromRows(Seq(Seq(1.0, 1.0)))
    assert(a.leftTimes(m).data.toSeq == Seq(5.0, 7.0, 9.0))
  }

  test("transpose twice is the identity") {
    assert(a.transpose.transpose == a)
    assert(a.transpose(2, 1) == a(1, 2))
  }

  test("(A·M)ᵀ == Mᵀ·Aᵀ") {
    val x = DenseMatrix.rand(7, 5, seed = 1)
    val y = DenseMatrix.rand(5, 4, seed = 2)
    val lhs = x.timesMatrix(y).transpose
    val rhs = y.transpose.timesMatrix(x.transpose)
    lhs.data.zip(rhs.data).foreach { case (l, r) => assert(math.abs(l - r) < 1e-12) }
  }

  test("scalar ops") {
    assert(a.timesScalar(2.0).data.toSeq == Seq(2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
    assert(a.plusScalar(1.0).data.toSeq == Seq(2.0, 3.0, 4.0, 5.0, 6.0, 7.0))
  }

  test("sparsity measure") {
    assert(DenseMatrix.zeros(3, 3).sparsity == 0.0)
    assert(a.sparsity == 1.0)
    assert(TestMatrices.fromRows(Seq(Seq(0.0, 1.0))).sparsity == 0.5)
  }

  test("rand respects the sparsity knob roughly") {
    val m = DenseMatrix.rand(100, 100, seed = 3, sparsity = 0.3)
    assert(math.abs(m.sparsity - 0.3) < 0.05)
  }
}
