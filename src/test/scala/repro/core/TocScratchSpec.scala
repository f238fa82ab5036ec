package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.DenseMatrix

/** `TocMatrix`'s kernels share one spare `H` table per JVM, which holds
  * whatever the last kernel left in it. Whatever ran before, on whichever
  * batch and thread, each op must give the same bits as its first run on
  * the same batch and operands, and match the dense kernels on `decode`.
  */
class TocScratchSpec extends AnyFunSuite {
  import TocScratchSpec._

  test("A·v, v·A, A·M and M·A in any order over batches of mixed sizes give each op's first bits and the dense result (ScalaCheck)") {
    val prop = Prop.forAllNoShrink(batches, Gen.listOfN(60, Gen.zip(Gen.choose(0, 5), Gen.choose(0, Ops.length - 1)))) {
      (cases, steps) =>
        val first = scala.collection.mutable.Map.empty[(Int, Int), Array[Double]]
        // The large batch runs every op first, so the spare outgrows the rest.
        val order = Ops.indices.map((0, _)) ++ steps.filter(_._1 < cases.length)
        Prop.all(order.map { case (b, o) =>
          val c = cases(b)
          val (name, toc, dense) = Ops(o)
          val got = toc(c)
          val want = dense(c)
          val bits = first.getOrElseUpdate((b, o), got)
          (sameBits(got, bits) :| s"batch $b ${c.dense.rows}x${c.dense.cols}, $name: not its first bits") &&
            (close(got, want) :| s"batch $b ${c.dense.rows}x${c.dense.cols}, $name: not the dense result")
        }: _*)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(100).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("4 threads running the kernels at once on different batches each get their single-threaded bits") {
    val cases = Seq((200, 40, 1L), (120, 30, 2L), (60, 25, 3L), (20, 12, 4L)).map { case (r, c, s) => make(r, c, s) }
    val alone = cases.map(c => Ops.map { case (_, toc, _) => toc(c) })
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val start = new java.util.concurrent.CountDownLatch(1)
    val threads = cases.indices.map { b =>
      new Thread(() => {
        start.await()
        for (round <- 0 until 300; ((name, toc, _), o) <- Ops.zipWithIndex)
          if (!sameBits(toc(cases(b)), alone(b)(o))) failures.add(s"batch $b round $round $name")
      })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    assert(failures.isEmpty, failures.toString)
  }
}

object TocScratchSpec {
  /** A batch, its TOC encoding and the operands of its four ops. */
  final case class Case(dense: DenseMatrix, toc: TocMatrix, v: Array[Double], u: Array[Double],
                        m: DenseMatrix, ml: DenseMatrix)

  /** A `rows x cols` batch drawn from a few quantized row templates, so the
    * prefix tree grows chains, with operands drawn from [-1, 1].
    */
  def make(rows: Int, cols: Int, seed: Long): Case = {
    val rng = new scala.util.Random(seed)
    val density = 0.2 + 0.6 * rng.nextDouble()
    val templates = Array.fill(1 + rng.nextInt(6))(Array.fill(cols)(
      if (rng.nextDouble() < density) (rng.nextInt(4) + 1) * 0.5 else 0.0))
    val data = Array.fill(rows) {
      val t = templates(rng.nextInt(templates.length)).clone()
      t(rng.nextInt(cols)) = if (rng.nextBoolean()) 0.0 else rng.nextDouble() * 4 - 2
      t
    }.flatten
    val dense = new DenseMatrix(rows, cols, data)
    def operand(n: Int) = Array.fill(n)(2 * rng.nextDouble() - 1)
    val p = 1 + rng.nextInt(8)
    Case(dense, TocEncoder.encode(dense), operand(cols), operand(rows),
      new DenseMatrix(cols, p, operand(cols * p)), new DenseMatrix(p, rows, operand(p * rows)))
  }

  /** A large batch first, then up to 5 smaller ones. */
  val batches: Gen[IndexedSeq[Case]] = for {
    large <- Gen.zip(Gen.choose(150, 250), Gen.choose(30, 60), Gen.long)
    small <- Gen.choose(1, 5).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(1, 60), Gen.choose(1, 25), Gen.long)))
  } yield (large +: small).map { case (r, c, s) => make(r, c, s) }.toIndexedSeq

  /** The four kernels that use `H`: each op's name, its run on the TOC
    * batch and its run on the dense one.
    */
  val Ops: IndexedSeq[(String, Case => Array[Double], Case => Array[Double])] = IndexedSeq(
    ("A·v", c => c.toc.timesVector(c.v), c => c.dense.timesVector(c.v)),
    ("v·A", c => c.toc.vectorTimes(c.u), c => c.dense.vectorTimes(c.u)),
    ("A·M", c => c.toc.timesMatrix(c.m).data, c => c.dense.timesMatrix(c.m).data),
    ("M·A", c => c.toc.leftTimes(c.ml).data, c => c.dense.leftTimes(c.ml).data))

  def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length &&
      a.indices.forall(k => java.lang.Double.doubleToRawLongBits(a(k)) == java.lang.Double.doubleToRawLongBits(b(k)))

  def close(got: Array[Double], want: Array[Double]): Boolean =
    got.length == want.length &&
      got.indices.forall(k => math.abs(got(k) - want(k)) <= 1e-9 * math.max(1.0, math.abs(want(k))))
}
