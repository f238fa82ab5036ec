package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.EncodingConformanceSpec
import repro.core.CorruptBatchException
import repro.data.{DatasetSpec, Datasets}

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

  test("CVI, DVI and CLA bytes of every analog's 250-row slice stay the same (pinned SHA-256)") {
    // (encoding, analog) → (length, SHA-256) of its bytes.
    val pinned = Seq(
      ("CVI", Datasets.census, 36612, "48ab6d0d0b298bdf6392ff579b9c1f8fe188f4880b15e5aec40a7e82dd66bb0a"),
      ("CVI", Datasets.imagenet, 363372, "d3aba4c3d9cb5fba041481e484d64914d6cc3b8f10f034246137ad13f97f86bc"),
      ("CVI", Datasets.mnist, 248983, "2174014e1a7c92839e074878eb81a703350754e81e3c0b8895b3e5d943ba8923"),
      ("CVI", Datasets.kdd99, 16340, "90c1a5155e1bbf15413558ff735a838f448cdb1bf543e48523295f71d325a428"),
      ("CVI", Datasets.rcv1, 23475, "64dd5431f8e4daf5b73b99cce60a6f6020128a9b13b49a65acd1488b312272d1"),
      ("CVI", Datasets.deep1b, 334669, "8672d54208d34c4d5627d52a13ab7448596ddf5d44d8f06aac84cce8b8cde791"),
      ("DVI", Datasets.census, 17121, "420fbda5a334ea216cf84f3f6ffb37be487c5163c723358b8cb41ce522be90d5"),
      ("DVI", Datasets.imagenet, 225281, "c7f1696a9512e7c4398bd9cce4453f42a3cfc27339e34d9983c6aea4fab8824f"),
      ("DVI", Datasets.mnist, 196537, "c14a082447a4a2f1009841f01d6f5da33b63a7e84ae09edfd10fc345be92d427"),
      ("DVI", Datasets.kdd99, 10589, "8739e11b9200efb9e535117863fc78069a91b966b13665e338b140026cc72cc4"),
      ("DVI", Datasets.rcv1, 2012849, "9fd278c89b377664c43bf85b056b7d0523573bad2e423eb9b9b893c08e4fecba"),
      ("DVI", Datasets.deep1b, 237665, "47c2f1e375034a779552164beaf183f0665381a87a16a72fc9d94fbdf2f570bf"),
      ("CLA", Datasets.census, 20148, "09bab4294ac56347276dc3102a8f36106c9e69b6e73be1028f1dd25ea178d633"),
      ("CLA", Datasets.imagenet, 283468, "c9d1adeeb526e212bc07d151509f8dca9fdcb498fe8747f10280117172dda5c1"),
      ("CLA", Datasets.mnist, 320848, "a92c14537969eaf7d4853f73aa5620ae4acad0f9928d56bd1286897124a8279c"),
      ("CLA", Datasets.kdd99, 11526, "62311c34570b1c4e4ba4afb9f5db51603bbeedf8dabc1344c48c9c0a6d357a3f"),
      ("CLA", Datasets.rcv1, 1080848, "8dde6158afc22bf1da27508f9c9abe9df3751cb52525a42e37d66d20dacec276"),
      ("CLA", Datasets.deep1b, 192392, "a58f84257ae5e510f47e76720dabeab7273e668c77fb5c3382449cc1b7b375e0"))
    assertPinned(pinned)
  }

  test("CSR bytes of every analog's 250-row slice stay the same (pinned SHA-256)") {
    assertPinned(Seq(
      ("CSR", Datasets.census, 86200, "addfadaf39c0a402847bc666c8f79731a4d3815d4df3d01cc4a44143b594d4d3"),
      ("CSR", Datasets.imagenet, 870040, "1ce37329a4686f5649333402c4bc87da66d20e73bd2e878c95f29e8bd8b9298c"),
      ("CSR", Datasets.mnist, 594892, "11ac2595c7085772ca29769f3121bc538906e071ba90654b9fdc2646d53d0300"),
      ("CSR", Datasets.kdd99, 37624, "3269709295ed43543b537288febec46a7f42bc44f949bba6f5535a6b2378cdb4"),
      ("CSR", Datasets.rcv1, 20272, "396c94a5e44934a9ceec697c30586a374af85986108dcc1ee8037b939225600e"),
      ("CSR", Datasets.deep1b, 289012, "1c914a309d1187e66ac89ac768ee518318df685af2bb12bc6d2fce1317b48bcb")))
  }

  /** Checks each (encoding, analog, length, SHA-256) against the bytes of the analog's 250-row slice. */
  def assertPinned(pinned: Seq[(String, DatasetSpec, Int, String)]): Unit =
    for ((enc, spec, length, sha) <- pinned) {
      val bytes = Encodings.byName(enc).encode(Datasets.slice(spec, 0, 250)._1).toBytes
      assert(bytes.length == length, s"$enc ${spec.name}")
      assert(java.security.MessageDigest.getInstance("SHA-256").digest(bytes).map("%02x".format(_)).mkString == sha,
        s"$enc ${spec.name}")
    }

  test("a DEN header whose rows x cols overflows throws CorruptBatchException") {
    val header = java.nio.ByteBuffer.allocate(8).order(java.nio.ByteOrder.LITTLE_ENDIAN)
      .putInt(1 << 30).putInt(Int.MaxValue).array()
    intercept[CorruptBatchException](repro.baselines.DenEncoder.fromBytes(header))
  }

  test("unknown tag is rejected") {
    intercept[IllegalArgumentException](MatrixCodec.deserialize(Array[Byte](42, 0, 0)))
  }

  test("a 12-byte CSR buffer claiming 0 x (2^27 + 2) and an 8-byte DEN header claiming 0 x 2^27 throw CorruptBatchException") {
    def header(rows: Int, cols: Int, size: Int) =
      java.nio.ByteBuffer.allocate(size).order(java.nio.ByteOrder.LITTLE_ENDIAN).putInt(rows).putInt(cols).array()
    // Neither format's bytes grow with the columns of a 0-row batch.
    intercept[CorruptBatchException](repro.baselines.CsrEncoder.fromBytes(header(0, (1 << 27) + 2, 12)))
    intercept[CorruptBatchException](repro.baselines.DenEncoder.fromBytes(header(0, 1 << 27, 8)))
  }
}
