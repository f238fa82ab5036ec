package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.{DenseMatrix, Encodings}

/** Every compared encoding (the Table 6/7 method rows plus CLA) must be
  * lossless and produce op results identical to the dense reference —
  * parametrized over encodings x matrix regimes.
  */
class EncodingConformanceSpec extends AnyFunSuite {
  import EncodingConformanceSpec._

  val eps = 1e-9

  def assertVec(got: Array[Double], want: Array[Double], ctx: String): Unit = {
    assert(got.length == want.length, ctx)
    got.zip(want).foreach { case (g, w) =>
      assert(math.abs(g - w) <= eps * math.max(1.0, math.abs(w)), s"$ctx: $g vs $w")
    }
  }

  for {
    enc <- Encodings.all
    (label, rows, cols, sp, quant) <- regimes
  } {
    val ctx = s"${enc.name} on $label"

    test(s"$ctx: decode is lossless") {
      val a = matrixFor(rows, cols, sp, quant, seed = label.hashCode)
      assert(enc.encode(a).decode == a, ctx)
    }

    test(s"$ctx: A·v, v·A, A·M, M·A, A.*c match the dense kernels") {
      val a = matrixFor(rows, cols, sp, quant, seed = label.hashCode + 1)
      val c = enc.encode(a)
      val rng = new scala.util.Random(17)
      val v = Array.fill(cols)(rng.nextDouble() - 0.5)
      val u = Array.fill(rows)(rng.nextDouble() - 0.5)
      val m = DenseMatrix.rand(cols, 5, seed = 31)
      val ml = DenseMatrix.rand(5, rows, seed = 32)
      assertVec(c.timesVector(v), a.timesVector(v), s"$ctx A.v")
      assertVec(c.vectorTimes(u), a.vectorTimes(u), s"$ctx v.A")
      assertVec(c.timesMatrix(m).data, a.timesMatrix(m).data, s"$ctx A.M")
      assertVec(c.leftTimes(ml).data, a.leftTimes(ml).data, s"$ctx M.A")
      assertVec(c.timesScalar(2.0).decode.data, a.timesScalar(2.0).data, s"$ctx A.*c")
      assertVec(c.plusScalar(0.5).data, a.plusScalar(0.5).data, s"$ctx A.+c")
    }
  }

  test("sizeBytes ordering on sparse quantized data: CSR < DEN, TOC < CSR") {
    val a = matrixFor(250, 60, 0.4, quantized = true, seed = 77)
    // boost redundancy: repeat rows
    val rep = new DenseMatrix(250, 60,
      Array.tabulate(250 * 60)(k => a.data((k / 60 % 25) * 60 + k % 60)))
    val sizes = Encodings.all.map(e => e.name -> e.encode(rep).sizeBytes).toMap
    assert(sizes("CSR") < sizes("DEN"))
    assert(sizes("TOC") < sizes("CSR"))
    assert(sizes("CVI") < sizes("CSR"))
  }

  test("on dense unique-valued data no scheme beats DEN meaningfully") {
    val a = matrixFor(100, 30, 1.0, quantized = false, seed = 88)
    for (e <- Encodings.all) {
      val ratio = a.denSizeBytes.toDouble / e.encode(a).sizeBytes
      assert(ratio < 1.6, s"${e.name} ratio $ratio unexpectedly high on incompressible data")
    }
  }
}

object EncodingConformanceSpec {
  /** Matrix regimes: (label, rows, cols, sparsity, quantized). */
  val regimes: Seq[(String, Int, Int, Double, Boolean)] = Seq(
    ("sparse-quantized", 35, 20, 0.2, true),
    ("moderate-quantized", 35, 20, 0.5, true),
    ("dense-continuous", 25, 15, 1.0, false),
    ("very-sparse-continuous", 40, 30, 0.05, false),
    ("all-zero", 10, 12, 0.0, true))

  def matrixFor(rows: Int, cols: Int, sparsity: Double, quantized: Boolean, seed: Int): DenseMatrix = {
    val rng = new scala.util.Random(seed)
    new DenseMatrix(rows, cols, Array.fill(rows * cols) {
      if (rng.nextDouble() < sparsity) {
        if (quantized) (rng.nextInt(6) + 1) * 0.25 else rng.nextDouble() * 4 - 2
      } else 0.0
    })
  }
}
