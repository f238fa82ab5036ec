package repro.baselines

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.CorruptBatchException
import repro.linalg.{DenseMatrix, MatrixEncoder}

/** CVI is CSR with value indexing: both run the [[SparseRowMatrix]]
  * kernels, so every op must give the same doubles, bit for bit up to NaN
  * payloads (`java.lang.Double.compare`).
  */
class SparseRowPropertySpec extends AnyFunSuite {
  import SparseRowPropertySpec._

  test("CSR and CVI agree element for element on A·v, v·A, A·M, M·A, A.*c and decode (ScalaCheck)") {
    val prop = Prop.forAllNoShrink(cases) { t =>
      val csr = CsrEncoder.encode(t.a)
      val cvi = CviEncoder.encode(t.a)
      (same(csr.timesVector(t.v), cvi.timesVector(t.v)) :| "A·v") &&
      (same(csr.vectorTimes(t.u), cvi.vectorTimes(t.u)) :| "v·A") &&
      (same(csr.timesMatrix(t.m).data, cvi.timesMatrix(t.m).data) :| "A·M") &&
      (same(csr.leftTimes(t.ml).data, cvi.leftTimes(t.ml).data) :| "M·A") &&
      (same(csr.timesScalar(t.c).decode.data, cvi.timesScalar(t.c).decode.data) :| "A.*c") &&
      (same(csr.decode.data, cvi.decode.data) :| "decode")
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(2019L)
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("CSR and CVI bytes with one row's columns repeated or reversed throw CorruptBatchException (ScalaCheck)") {
    val prop = Prop.forAllNoShrink(cases, Gen.long) { (t, seed) =>
      val rng = new scala.util.Random(seed)
      val csr = CsrEncoder.encode(t.a)
      val cvi = CviEncoder.encode(t.a)
      val rowPtr = csr.rowPtr
      val rows = (0 until csr.numRows).filter(i => rowPtr(i + 1) - rowPtr(i) >= 2)
      rows.nonEmpty ==> {
        val i = rows(rng.nextInt(rows.length))
        val cols = csr.colIdx.clone()
        val how =
          if (rng.nextBoolean()) {
            val k = rowPtr(i) + rng.nextInt(rowPtr(i + 1) - rowPtr(i) - 1)
            cols(k + 1) = cols(k)
            s"row $i repeats column ${cols(k)}"
          } else {
            val reversed = cols.slice(rowPtr(i), rowPtr(i + 1)).reverse
            System.arraycopy(reversed, 0, cols, rowPtr(i), reversed.length)
            s"row $i reversed"
          }
        val buffers: Seq[(MatrixEncoder, Array[Byte])] = Seq(
          CsrEncoder -> new CsrMatrix(csr.numRows, csr.numCols, csr.values, cols, rowPtr).toBytes,
          CviEncoder -> new CviMatrix(cvi.numRows, cvi.numCols, cvi.dict, cvi.valIdx, cols, cvi.rowPtr).toBytes)
        Prop.all(buffers.map { case (enc, bytes) =>
          val threw = try { enc.fromBytes(bytes); false } catch { case _: CorruptBatchException => true }
          threw :| s"${enc.name}, $how: accepted"
        }: _*)
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L)
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }
}

object SparseRowPropertySpec {
  /** Equal doubles, `-0.0` told from `+0.0`, any NaN equal to any NaN. */
  def same(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(k => java.lang.Double.compare(a(k), b(k)) == 0)

  /** A batch `a` and the operands of its five ops. */
  final case class Case(a: DenseMatrix, v: Array[Double], u: Array[Double],
                        m: DenseMatrix, ml: DenseMatrix, c: Double) {
    override def toString: String =
      s"A ${a.rows}x${a.cols} = [${a.data.mkString(", ")}], v = [${v.mkString(", ")}], " +
        s"u = [${u.mkString(", ")}], M = [${m.data.mkString(", ")}], ML = [${ml.data.mkString(", ")}], c = $c"
  }

  /** Mostly `+0.0` (the only zero CSR drops), a few repeated values that
    * CVI's dictionary shares, every special double, and arbitrary ones.
    */
  val cell: Gen[Double] = Gen.frequency(
    8 -> Gen.const(0.0),
    4 -> Gen.oneOf(0.25, 0.5, 1.5, -2.0),
    3 -> Gen.oneOf(
      -0.0, Double.NaN, java.lang.Double.longBitsToDouble(0x7ff8000000000001L),
      Double.PositiveInfinity, Double.NegativeInfinity,
      Double.MinPositiveValue, -Double.MinPositiveValue,
      java.lang.Double.longBitsToDouble(0x000fffffffffffffL), 2.5e-310),
    2 -> Gen.choose(-1e6, 1e6))

  def vec(n: Int): Gen[Array[Double]] = Gen.containerOfN[Array, Double](n, cell)

  def dense(rows: Int, cols: Int): Gen[DenseMatrix] =
    vec(rows * cols).map(new DenseMatrix(rows, cols, _))

  /** 0-row, 0-column and 1-row batches, and rows that are left empty. */
  val cases: Gen[Case] = for {
    rows <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 4 -> Gen.choose(2, 12))
    cols <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 8))
    data <- Gen.listOfN(rows, Gen.frequency(1 -> Gen.const(new Array[Double](cols)), 3 -> vec(cols)))
    v <- vec(cols)
    u <- vec(rows)
    p <- Gen.choose(1, 3)
    m <- dense(cols, p)
    ml <- dense(p, rows)
    c <- cell
  } yield Case(new DenseMatrix(rows, cols, data.toArray.flatten), v, u, m, ml, c)
}
