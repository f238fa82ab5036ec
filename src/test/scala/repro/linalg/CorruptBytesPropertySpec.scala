package repro.linalg

import java.util.concurrent.{Executors, TimeUnit, TimeoutException}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.SparseRowPropertySpec.cases
import repro.core.{CorruptBatchException, DecodeTreeSpec, PrefixTreeEncoder, PrefixTreeEncoderSpec, TocEncoder, TocViews}

/** Every parser on untrusted bytes: single-bit flips and truncations of
  * valid encodings of [[repro.baselines.SparseRowPropertySpec]]'s batches,
  * and random byte strings. Parsing then decoding each must give a matrix
  * of the parsed shape or throw [[CorruptBatchException]], within a time
  * bound. The formats carry no checksum, so a flipped payload value may
  * decode to other bits.
  *
  * Every accepted buffer is also a matrix. Where the decode gives only
  * finite values, and the shape, an empty dimension counted as 1, is
  * within [[SparseDecodeCells]] cells, `A·v`, `v·A`, `A·M` and `M·A` on
  * operands drawn from [-1, 1] (`M` with 1 to 3 columns or rows) must
  * agree with the same ops on the decoded [[DenseMatrix]], within 1e-9
  * relative, under the same time bound. Out of this scope:
  *  - a decode that holds a NaN or ±Inf, where the ops may order their
  *    sums differently from the dense reference, and an Inf − Inf in one
  *    order is an Inf in the other;
  *  - a wider shape, such as 250 rows of 40 000 columns, which the shape
  *    rule accepts.
  */
class CorruptBytesPropertySpec extends AnyFunSuite with BeforeAndAfterAll {

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

  override def afterAll(): Unit = worker.shutdownNow()

  /** Where `got` is further than 1e-9 relative from `want`, if anywhere. */
  def disagreement(op: String, got: Array[Double], want: Array[Double]): Option[String] =
    if (got.length != want.length) Some(s"$op gave ${got.length} values, the dense reference ${want.length}")
    else want.indices.find { k =>
      !(got(k) == want(k) || math.abs(got(k) - want(k)) <= 1e-9 * math.max(1.0, math.abs(want(k))))
    }.map(k => s"$op index $k: ${got(k)} vs ${want(k)}")

  /** Where an op on `m` disagrees with the same op on its decode `d`. */
  def opsFault(m: CompressedMatrix, d: DenseMatrix, rng: java.util.Random): Option[String] = {
    def operand(n: Int) = Array.fill(n)(2 * rng.nextDouble() - 1)
    val p = 1 + rng.nextInt(3)
    val v = operand(m.numCols); val u = operand(m.numRows)
    val mr = new DenseMatrix(m.numCols, p, operand(m.numCols * p))
    val ml = new DenseMatrix(p, m.numRows, operand(p * m.numRows))
    disagreement("A·v", m.timesVector(v), d.timesVector(v))
      .orElse(disagreement("v·A", m.vectorTimes(u), d.vectorTimes(u)))
      .orElse(disagreement("A·M", m.timesMatrix(mr).data, d.timesMatrix(mr).data))
      .orElse(disagreement("M·A", m.leftTimes(ml).data, d.leftTimes(ml).data))
  }

  /** What went wrong parsing, decoding and multiplying `in`, if anything;
    * `seed` draws the ops' operands.
    */
  def fault(enc: MatrixEncoder, in: Array[Byte], seed: Long): Option[String] = {
    val run = worker.submit[Option[String]] { () =>
      try {
        val m = enc.fromBytes(in)
        val cells = m.numRows.toLong * m.numCols
        if (cells > Int.MaxValue / 8) Some(s"parsed ${m.numRows} x ${m.numCols}, which does not fit an array")
        else if (SparseEncodings(enc.name) && cells > SparseDecodeCells) None
        else {
          val d = m.decode
          if (d.rows != m.numRows || d.cols != m.numCols || d.data.length != cells)
            Some(s"decoded ${d.rows} x ${d.cols}, parsed ${m.numRows} x ${m.numCols}")
          else if (math.max(m.numRows, 1).toLong * math.max(m.numCols, 1) > SparseDecodeCells ||
            !d.data.forall(x => !x.isNaN && !x.isInfinite)) None
          else opsFault(m, d, new java.util.Random(seed))
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
      val operands = new java.util.Random(~seed) // apart, so the buffers stay those of `rng` alone
      Prop.all(Encodings.all.map { enc =>
        val valid = enc.encode(t.a).toBytes
        val flipped = valid.clone()
        val bit = rng.nextInt(8 * valid.length)
        flipped(bit / 8) = (flipped(bit / 8) ^ (1 << bit % 8)).toByte
        val random = new Array[Byte](rng.nextInt(2 * valid.length))
        rng.nextBytes(random)
        Prop.all(Seq(s"bit $bit flipped" -> flipped, "truncated" -> valid.take(rng.nextInt(valid.length)),
          "random" -> random).map { case (label, in) =>
          val f = fault(enc, in, operands.nextLong())
          f.isEmpty :| s"${enc.name}, $label: ${f.getOrElse("")}"
        }: _*)
      }: _*)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("Algorithm 1's TOC bytes of generated tables are rejected exactly when a tuple's columns do not ascend, else agree with the dense ops (ScalaCheck)") {
    // Arbitrary tables, which Algorithm 1 encodes losslessly but no matrix
    // gives, and ascending ones; the plain column mapping keeps each header
    // within the shape rule. An accepted batch counts as agreeing only
    // where `fault` ran the ops on it.
    val plain = PrefixTreeEncoderSpec.plainTables
    var rejected = 0
    var agreed = 0
    val prop = Prop.forAllNoShrink(Gen.oneOf(plain, DecodeTreeSpec.ascending(plain)), Gen.long) { (b, seed) =>
      val ascends = b.forall(t => t.indices.drop(1).forall(j => t(j - 1).col < t(j).col))
      val bytes = TocViews.physical(PrefixTreeEncoder.encode(TocViews.sparse(b))).toBytes
      val decoded = try Some(TocEncoder.fromBytes(bytes).decode) catch { case _: CorruptBatchException => None }
      if (decoded.isEmpty) rejected += 1
      else if (decoded.exists(d => math.max(d.rows, 1).toLong * math.max(d.cols, 1) <= SparseDecodeCells &&
        d.data.forall(x => !x.isNaN && !x.isInfinite))) agreed += 1
      val f = fault(TocEncoder, bytes, seed)
      (f.isEmpty :| f.getOrElse("")) &&
        ((decoded.isEmpty != ascends) :| s"columns ascend: $ascends, rejected: ${decoded.isEmpty}")
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
    info(s"$rejected rejected, $agreed agreed with the dense ops, of ${result.succeeded}")
    assert(rejected > 0 && agreed > 0, s"$rejected rejected, $agreed agreed")
  }
}
