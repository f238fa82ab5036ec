package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.EncodingConformanceSpec
import repro.core.CorruptBatchException
import repro.data.Datasets

class MatrixCodecSpec extends AnyFunSuite {

  val a = DenseMatrix.rand(30, 12, seed = 41, sparsity = 0.5)

  /** The conformance regimes plus one 250-row batch of each moderate analog. */
  lazy val batches: Seq[(String, DenseMatrix)] =
    EncodingConformanceSpec.regimes.map { case (label, rows, cols, sp, quant) =>
      label -> EncodingConformanceSpec.matrixFor(rows, cols, sp, quant, seed = label.hashCode)
    } ++ Seq(Datasets.census, Datasets.imagenet, Datasets.mnist, Datasets.kdd99).map { spec =>
      spec.name -> Datasets.slice(spec, 0, 250)._1
    }

  /** Signed zeros, an infinity, a subnormal and two NaN payloads. */
  val special = TestMatrices.fromRows(Seq(
    Seq(0.0, -0.0, 1.5),
    Seq(-0.0, Double.PositiveInfinity, Double.MinPositiveValue),
    Seq(Double.NaN, java.lang.Double.longBitsToDouble(0x7ff8000000000001L), Double.NaN)))

  def sameBits(x: DenseMatrix, y: DenseMatrix): Boolean =
    x.rows == y.rows && x.cols == y.cols &&
      x.data.map(java.lang.Double.doubleToRawLongBits).sameElements(y.data.map(java.lang.Double.doubleToRawLongBits))

  for (enc <- Encodings.all) {
    test(s"${enc.name}: serialize/deserialize preserves decode and ops") {
      val c = enc.encode(a)
      val back = MatrixCodec.deserialize(MatrixCodec.serialize(c))
      assert(back.decode == a)
      val v = Array.tabulate(12)(i => i * 0.1)
      back.timesVector(v).zip(a.timesVector(v)).foreach { case (g, w) =>
        assert(math.abs(g - w) < 1e-9)
      }
    }

    test(s"${enc.name}: serialized length is sizeBytes + 1 on every regime and analog") {
      for ((label, x) <- batches) {
        val m = enc.encode(x)
        val bytes = MatrixCodec.serialize(m)
        assert(bytes.length == m.sizeBytes + 1, label)
        assert(sameBits(MatrixCodec.deserialize(bytes).decode, x), label)
      }
    }

    test(s"${enc.name}: -0.0, +Inf and a subnormal round-trip bit-exact") {
      val back = MatrixCodec.deserialize(MatrixCodec.serialize(enc.encode(special))).decode
      assert(sameBits(back, special))
    }

    test(s"${enc.name}: a header claiming 200M rows of 0 columns, or 2^30 columns, throws CorruptBatchException") {
      def patched(x: DenseMatrix, at: Int, value: Int): Array[Byte] = {
        val bytes = enc.encode(x).toBytes
        java.nio.ByteBuffer.wrap(bytes).order(java.nio.ByteOrder.LITTLE_ENDIAN).putInt(at, value)
        bytes
      }
      // No bytes bound a 0-column batch's rows, and a sparse batch's bytes
      // do not grow with its columns.
      intercept[CorruptBatchException](enc.fromBytes(patched(DenseMatrix.zeros(3, 0), 0, 200000000)))
      intercept[CorruptBatchException](enc.fromBytes(patched(Datasets.slice(Datasets.census, 0, 3)._1, 4, 1 << 30)))
    }

    test(s"${enc.name}: every truncation throws CorruptBatchException") {
      val bytes = MatrixCodec.serialize(enc.encode(a))
      for (k <- 0 until bytes.length)
        intercept[CorruptBatchException](MatrixCodec.deserialize(bytes.take(k)).decode)
    }
  }

  test("TOC is framed with its physical byte layout (tag 1), not JDK serialization") {
    val bytes = MatrixCodec.serialize(Encodings.byName("TOC").encode(a))
    assert(bytes(0) == 1.toByte)
    // far smaller than the bytes of the dense batch
    assert(bytes.length < MatrixCodec.serialize(Encodings.byName("DEN").encode(a)).length)
  }

  test("a DEN header whose rows x cols overflows throws CorruptBatchException") {
    val header = java.nio.ByteBuffer.allocate(8).order(java.nio.ByteOrder.LITTLE_ENDIAN)
      .putInt(1 << 30).putInt(Int.MaxValue).array()
    intercept[CorruptBatchException](repro.baselines.DenEncoder.fromBytes(header))
  }

  test("unknown tag is rejected") {
    intercept[IllegalArgumentException](MatrixCodec.deserialize(Array[Byte](42, 0, 0)))
  }

  test("vector framing round-trips") {
    val v = Array(1.5, -2.5, 0.0, 3.25)
    assert(MatrixCodec.deserializeVector(MatrixCodec.serializeVector(v)).toSeq == v.toSeq)
    assert(MatrixCodec.deserializeVector(MatrixCodec.serializeVector(Array.empty)).isEmpty)
  }
}
