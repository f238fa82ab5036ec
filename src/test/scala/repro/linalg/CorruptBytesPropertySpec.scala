package repro.linalg

import java.util.concurrent.{Executors, TimeUnit, TimeoutException}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.SparseRowPropertySpec.cases
import repro.core.CorruptBatchException

/** Every parser on untrusted bytes: single-bit flips and truncations of
  * valid encodings of [[repro.baselines.SparseRowPropertySpec]]'s batches,
  * and random byte strings. Parsing then decoding each must give a matrix
  * of the parsed shape or throw [[CorruptBatchException]], within a time
  * bound. The formats carry no checksum, so a flipped payload value may
  * decode to other bits.
  */
class CorruptBytesPropertySpec extends AnyFunSuite {

  /** The bytes of TOC, CSR and CVI do not grow with the column count, so a
    * flipped one can give a valid batch whose dense decode needs up to the
    * 2 GiB the shape rule allows. Above this many cells such a batch is
    * only checked against that rule; every other encoding's bytes bound its
    * shape, and it is always decoded.
    */
  val SparseDecodeCells: Long = 1L << 20
  val SparseEncodings = Set("TOC", "CSR", "CVI")
  val TimeBoundSeconds = 10L

  private val worker = Executors.newSingleThreadExecutor { r =>
    val t = new Thread(r, "corrupt-bytes"); t.setDaemon(true); t
  }

  /** What went wrong parsing and decoding `in`, if anything. */
  def fault(enc: MatrixEncoder, in: Array[Byte]): Option[String] = {
    val run = worker.submit[Option[String]] { () =>
      try {
        val m = enc.fromBytes(in)
        val cells = m.numRows.toLong * m.numCols
        if (cells > Int.MaxValue / 8) Some(s"parsed ${m.numRows} x ${m.numCols}, which does not fit an array")
        else if (SparseEncodings(enc.name) && cells > SparseDecodeCells) None
        else {
          val d = m.decode
          if (d.rows == m.numRows && d.cols == m.numCols && d.data.length == cells) None
          else Some(s"decoded ${d.rows} x ${d.cols}, parsed ${m.numRows} x ${m.numCols}")
        }
      } catch {
        case _: CorruptBatchException => None
        case e: Throwable => Some(e.toString)
      }
    }
    try run.get(TimeBoundSeconds, TimeUnit.SECONDS)
    catch { case _: TimeoutException => run.cancel(true); Some(s"no result within $TimeBoundSeconds s") }
  }

  test("every encoding rejects corrupted bytes with CorruptBatchException or decodes them to the parsed shape (ScalaCheck)") {
    val prop = Prop.forAllNoShrink(cases, Gen.long) { (t, seed) =>
      val rng = new java.util.Random(seed)
      Prop.all(Encodings.all.map { enc =>
        val valid = enc.encode(t.a).toBytes
        val flipped = valid.clone()
        val bit = rng.nextInt(8 * valid.length)
        flipped(bit / 8) = (flipped(bit / 8) ^ (1 << bit % 8)).toByte
        val random = new Array[Byte](rng.nextInt(2 * valid.length))
        rng.nextBytes(random)
        Prop.all(Seq(s"bit $bit flipped" -> flipped, "truncated" -> valid.take(rng.nextInt(valid.length)),
          "random" -> random).map { case (label, in) =>
          val f = fault(enc, in)
          f.isEmpty :| s"${enc.name}, $label: ${f.getOrElse("")}"
        }: _*)
      }: _*)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L), prop)
    worker.shutdownNow()
    assert(result.passed, Pretty.pretty(result))
  }
}
