package repro.perfbench

import repro.core.TocEncoder
import repro.data.{DatasetSpec, Datasets}
import repro.linalg.{DenseMatrix, Encodings}
import repro.mgd._

/** `train-local`: `Mgd.train` over TOC batches encoded once in set-up, with
  * `C′` memoized (resident). The primary case is one-vs-rest LR on
  * mnist-like (20 `A·v`/`v·A` calls per batch step); the secondary case is
  * binary LR on the same 6000 imagenet-like rows `train-spark` trains on,
  * here without Spark or bytes. Kernels and dense math do the work;
  * parsing, `C′` build, the codec and Spark cost nothing here.
  *
  * The traced run also trains the 200/50 NN on imagenet-like (`A·M`/`M·A`
  * with p = 200, plus the dense layers) for a third of its time. Its
  * throughput moved by up to 2x between runs on a shared machine, more
  * than an end-to-end bound can absorb, so it is a per-layer metric.
  */
final class LocalTrainBench(run: Run) extends Workload {
  private val BatchRows = 250
  private val LrRate = 0.05
  private val mnist = run.analog(Datasets.mnist)
  private val imagenet = run.analog(Datasets.imagenet)
  private val MnistRows = 3000
  private val ImagenetRows = 6000
  private val NnBatches = 2

  private var mnistBatches, imagenetBatches: IndexedSeq[MiniBatch] = IndexedSeq.empty
  private var ovr, lr, nn: Model = _
  private var tocBytes, denBytes = 0L

  val primaryWhat = "rows/s of Mgd.train, one-vs-rest LR on mnist-like, resident TOC"
  val secondaryWhat = "rows/s of Mgd.train, binary LR on imagenet-like, resident TOC"

  override val selfTimed: Map[String, String] = Map("mgd.lr_step" -> "mgd.lr_self", "mgd.nn_step" -> "mgd.nn_self")

  private def ovrFresh: Model = new OneVsRest(mnist.numClasses, _ => new LogisticRegression(mnist.cols))
  private def lrFresh: Model = new LogisticRegression(imagenet.cols)
  private def nnFresh: Model = NeuralNet.paper(imagenet.cols, imagenet.numClasses)
  private def nnBatches = imagenetBatches.take(NnBatches)

  private def batches(t: Tracer, spec: DatasetSpec, rows: Int): IndexedSeq[MiniBatch] =
    (0 until rows by BatchRows).map { from =>
      val (x, y) = t.span("data.generate", spec.name)(Datasets.slice(spec, from.toLong, BatchRows))
      val toc = TocEncoder.encode(x)
      tocBytes += toc.toBytes.length
      denBytes += Encodings.byName("DEN").encode(x).sizeBytes
      if (t.enabled) t.count("core.cprime_per_nnz", spec.name,
        TracedMatrix.cPrimeSize(toc.physical).toDouble / x.data.count(_ != 0.0))
      toc.timesVector(new Array[Double](x.cols)) // builds and memoizes C′
      MiniBatch(toc, y)
    }

  def setUp(t: Tracer): Unit = {
    tocBytes = 0L; denBytes = 0L
    mnistBatches = batches(t, mnist, MnistRows)
    imagenetBatches = batches(t, imagenet, ImagenetRows)
    // Warm the kernels and dense math on throwaway models.
    Mgd.train(mnistBatches, ovrFresh, LrRate, 1)
    Mgd.train(imagenetBatches, lrFresh, LrRate, 1)
    Mgd.train(nnBatches, nnFresh, LrRate, 1)
    ovr = ovrFresh; lr = lrFresh; nn = nnFresh
  }

  def release(): Unit = { mnistBatches = IndexedSeq.empty; imagenetBatches = IndexedSeq.empty }

  /** One epoch of `Mgd.train`; returns rows per second. */
  private def pass(t: Tracer, batches: IndexedSeq[MiniBatch], model: Model, layer: String, tag: String): Double = {
    val (bs, m) =
      if (t.enabled) (TracedMatrix.wrap(batches, tag, t), new TracedModel(model, layer, tag, t))
      else (batches, model)
    val t0 = System.nanoTime()
    run.attempt(s"$layer pass on $tag") { Mgd.train(bs, m, LrRate, 1) }
    bs.map(_.size).sum / ((System.nanoTime() - t0) / 1e9)
  }

  def round(t: Tracer): (Double, Double) =
    (pass(t, mnistBatches, ovr, "mgd.lr", mnist.name), pass(t, imagenetBatches, lr, "mgd.lr", imagenet.name))

  override def replays: Boolean = true
  override def replay(t: Tracer, seconds: Double): Unit = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var n = 0
    while (n < 3 || System.nanoTime() < deadline) {
      t.epoch = n
      t.count("mgd.nn_rows_per_s", "", pass(t, nnBatches, nn, "mgd.nn", imagenet.name))
      n += 1
    }
    t.epoch = -1
  }

  /** Kernel outputs match the `decode`-then-`DenseMatrix` reference within
    * a relative 1e-9, and every trained model still gives a finite loss.
    */
  def check(): Unit = {
    val rng = new scala.util.Random(run.seed)
    def vec(n: Int) = Array.fill(n)(rng.nextGaussian())
    def mat(r: Int, c: Int) = new DenseMatrix(r, c, vec(r * c))
    for ((batches, p) <- Seq(mnistBatches -> 20, imagenetBatches -> 20, nnBatches -> 200); (b, i) <- batches.zipWithIndex) {
      val a = b.x
      val ref = a.decode
      val v = vec(a.numCols); val u = vec(a.numRows)
      val m = mat(a.numCols, p); val l = mat(p, a.numRows)
      def ok(got: Array[Double], want: Array[Double]) = Compare.relErr(got, want) <= 1e-9
      run.check(s"A·v batch $i")(ok(a.timesVector(v), ref.timesVector(v)))
      run.check(s"v·A batch $i")(ok(a.vectorTimes(u), ref.vectorTimes(u)))
      run.check(s"A·M batch $i, p = $p")(ok(a.timesMatrix(m).data, ref.timesMatrix(m).data))
      run.check(s"M·A batch $i, p = $p")(ok(a.leftTimes(l).data, ref.leftTimes(l).data))
    }
    run.check("one-vs-rest LR loss is finite")(Mgd.meanLoss(mnistBatches, ovr).isFinite)
    run.check("LR loss is finite")(Mgd.meanLoss(imagenetBatches, lr).isFinite)
    run.check("NN loss is finite")(Mgd.meanLoss(nnBatches, nn).isFinite)
  }

  def tocBytesPerDenseByte: Double = tocBytes.toDouble / denBytes

  def meta: Map[String, Any] = Map(
    "rows" -> Map(mnist.name -> MnistRows, imagenet.name -> ImagenetRows),
    "nn_rows" -> NnBatches * BatchRows, "batch_rows" -> BatchRows, "threads" -> 1)
}
