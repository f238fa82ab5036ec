package repro.linalg

import org.scalacheck.{Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.SparseRowPropertySpec.{Case, cases}

/** Every encoding against the dense reference, over the generator of
  * [[repro.baselines.SparseRowPropertySpec]] (`-0.0`, NaN payloads, ±Inf,
  * subnormals, empty rows, 0-row, 0-column and 1-row batches).
  *
  * Round trips are checked on the raw batch. The ops are checked on the
  * batch and operands with every non-finite value replaced by a finite
  * one: the encodings disagree on `0·∞` (DESIGN.md §7).
  */
class EncodingPropertySpec extends AnyFunSuite {

  def sameBits(x: DenseMatrix, y: DenseMatrix): Boolean =
    x.rows == y.rows && x.cols == y.cols &&
      x.data.map(java.lang.Double.doubleToRawLongBits).sameElements(y.data.map(java.lang.Double.doubleToRawLongBits))

  def finite(x: Double): Double = if (x.isNaN || x.isInfinite) 1.0 else x
  def finite(m: DenseMatrix): DenseMatrix = new DenseMatrix(m.rows, m.cols, m.data.map(finite))
  def abs(m: DenseMatrix): DenseMatrix = new DenseMatrix(m.rows, m.cols, m.data.map(math.abs))

  /** `got` within 1e-9 of `want`, relative to `scale`, the same op over
    * absolute values (which bounds any summation order's rounding error).
    */
  def close(got: Array[Double], want: Array[Double], scale: Array[Double]): Boolean =
    got.length == want.length &&
      got.indices.forall(k => math.abs(got(k) - want(k)) <= 1e-9 * scale(k))

  def opsMatch(enc: MatrixEncoder, t: Case): Prop = {
    val a = finite(t.a); val v = t.v.map(finite); val u = t.u.map(finite)
    val m = finite(t.m); val ml = finite(t.ml); val c = finite(t.c)
    val av = a.timesVector(v); val absAv = abs(a).timesVector(v.map(math.abs))
    val va = a.vectorTimes(u); val absVa = abs(a).vectorTimes(u.map(math.abs))
    val am = a.timesMatrix(m).data; val absAm = abs(a).timesMatrix(abs(m)).data
    val ma = a.leftTimes(ml).data; val absMa = abs(a).leftTimes(abs(ml)).data
    val ac = a.timesScalar(c).data; val absAc = abs(a).timesScalar(math.abs(c)).data
    val x = enc.encode(a)
    (close(x.timesVector(v), av, absAv) :| "A·v") &&
    (close(x.vectorTimes(u), va, absVa) :| "v·A") &&
    (close(x.timesMatrix(m).data, am, absAm) :| "A·M") &&
    (close(x.leftTimes(ml).data, ma, absMa) :| "M·A") &&
    (close(x.timesScalar(c).decode.data, ac, absAc) :| "A.*c")
  }

  test("every encoding round-trips bit for bit, through the codec too, and its ops match DenseMatrix (ScalaCheck)") {
    val prop = Prop.forAllNoShrink(cases) { t =>
      Prop.all(Encodings.all.map { enc =>
        val x = enc.encode(t.a)
        val framed = MatrixCodec.serialize(x)
        ((sameBits(x.decode, t.a) :| "decode") &&
          (sameBits(MatrixCodec.deserialize(framed).decode, t.a) :| "codec round trip") &&
          ((framed.length == x.sizeBytes + 1) :| "framed length") &&
          opsMatch(enc, t)) :| enc.name
      }: _*)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L)
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }
}
