package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import org.apache.spark.scheduler._
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines.CsrMatrix
import repro.core.{DecodeTree, TocEncoder, TocMatrix}
import repro.data.Datasets
import repro.linalg.{CompressedMatrix, DenseMatrix, MatrixCodec}
import repro.mgd.{LogisticRegression, Model}
import repro.sparkml.{EncodedBatchRow, SparkMgd, SparkMiniBatch}

/** `train-spark`: Spark local[k] with k ≤ nproc. Set-up generates
  * imagenet-like rows and encodes them into cached binary rows, once as
  * TOC and once as CSR. Each timed round runs one `SparkMgd.trainEpoch` of
  * binary LR per encoding. Every epoch each task parses its rows and, for
  * TOC, rebuilds `C′` before only two kernel calls per batch, so parsing,
  * the codec and scheduling dominate: this exercises the read side of the
  * format where `encode` exercises the write side. CSR is the paper's
  * in-system comparison and the only user of the JDK-serialization codec.
  */
final class SparkTrainBench(run: Run) extends Workload {
  private val Rows = 6000
  private val BatchRows = 250
  private val Partitions = 4
  private val LrRate = 0.1
  private val slots = math.min(Partitions, Runtime.getRuntime.availableProcessors)
  private val spec = run.analog(Datasets.imagenet)

  private var spark: SparkSession = _
  private var toc, csr: Dataset[EncodedBatchRow] = _
  private var tocModel, csrModel: Model = _
  private var initialLoss = Double.NaN
  private val listener = new EpochListener
  private var epochs = 0

  val primaryWhat = "rows/s of SparkMgd.trainEpoch, binary LR on imagenet-like, TOC from bytes"
  val secondaryWhat = "rows/s of SparkMgd.trainEpoch, binary LR on imagenet-like, CSR"

  private def fresh: Model = new LogisticRegression(spec.cols)

  def setUp(t: Tracer): Unit = {
    spark = SparkSession.builder
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", sys.props("java.io.tmpdir") + "/warehouse")
      .config("spark.sql.shuffle.partitions", Partitions.toString)
      .getOrCreate()
    if (t.enabled) spark.sparkContext.addSparkListener(listener)
    val df = SparkMiniBatch.generateDf(spark, spec, Rows, Partitions)
    def encoded(name: String) = t.span("sparkml.encode_batches", name.toLowerCase) {
      val ds = SparkMiniBatch.encodeBatches(df, BatchRows, name).cache()
      ds.count()
      ds
    }
    toc = encoded("TOC")
    csr = encoded("CSR")
    initialLoss = SparkMgd.meanLoss(toc, fresh)
    // Warm the task code paths of both encodings.
    SparkMgd.trainEpoch(toc, fresh, LrRate)
    SparkMgd.trainEpoch(csr, fresh, LrRate)
    tocModel = fresh
    csrModel = fresh
  }

  def release(): Unit = if (spark != null) {
    Seq(toc, csr).filter(_ != null).foreach(_.unpersist(true))
    spark.stop()
    spark = null
  }

  def round(t: Tracer): (Double, Double) = {
    def epoch(data: Dataset[EncodedBatchRow], model: Model, tag: String): (Model, Double) = {
      epochs += 1
      val k = s"$tag-$epochs"
      spark.sparkContext.setLocalProperty(EpochListener.EpochKey, k)
      var id = -1
      var out = model
      val t0 = System.nanoTime()
      t.span("sparkml.epoch", tag) {
        id = t.current
        run.attempt(s"$tag epoch") { out = SparkMgd.trainEpoch(data, model, LrRate) }
      }
      val secs = (System.nanoTime() - t0) / 1e9
      if (t.enabled) listener.flush(t, k, id, secs * 1000, tag)
      (out, Rows / secs)
    }
    val (m1, p) = epoch(toc, tocModel, "toc")
    val (m2, s) = epoch(csr, csrModel, "csr")
    tocModel = m1; csrModel = m2
    (p, s)
  }

  /** Driver-side replay over the same cached rows: the codec, the parse,
    * the `C′` build and the five §5.2 ops, from bytes and resident, against
    * CSR. p = 20 for `A·M`/`M·A`, the paper's op-bench setting.
    */
  override def replays: Boolean = true
  override def replay(t: Tracer, seconds: Double): Unit = {
    val tocRows = toc.collect().sortBy(_.batch_id)
    val csrRows = csr.collect().sortBy(_.batch_id)
    val rng = new scala.util.Random(run.seed)
    val v = Array.fill(spec.cols)(rng.nextGaussian())
    val u = Array.fill(BatchRows)(rng.nextGaussian())
    val m = new DenseMatrix(spec.cols, 20, Array.fill(spec.cols * 20)(rng.nextGaussian()))
    val l = new DenseMatrix(20, BatchRows, Array.fill(20 * BatchRows)(rng.nextGaussian()))
    val ops: Seq[(String, CompressedMatrix => Any)] = Seq(
      "scale" -> (_.timesScalar(2.0)), "av" -> (_.timesVector(v)), "va" -> (_.vectorTimes(u)),
      "am" -> (_.timesMatrix(m)), "ma" -> (_.leftTimes(l)))
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var pass = 0
    while (pass < 2 || System.nanoTime() < deadline) {
      t.epoch = pass
      tocRows.zip(csrRows).zipWithIndex.foreach { case ((tr, cr), i) if tr.n == BatchRows =>
        t.batch = i
        t.span("linalg.deserialize", "toc")(MatrixCodec.deserialize(tr.x))
        t.count("linalg.row_bytes", "toc", tr.x.length.toDouble)
        val payload = java.util.Arrays.copyOfRange(tr.x, 1, tr.x.length)
        val parsed = t.span("core.from_bytes")(TocEncoder.fromBytes(payload))
        t.span("core.cprime_build")(DecodeTree.buildFromPhysical(parsed.physical))
        val resident: TocMatrix = TocEncoder.fromBytes(payload)
        resident.timesVector(v) // memoizes C′
        val c = t.span("linalg.deserialize", "csr")(MatrixCodec.deserialize(cr.x)).asInstanceOf[CsrMatrix]
        t.count("linalg.row_bytes", "csr", cr.x.length.toDouble)
        ops.foreach { case (op, f) =>
          t.span("core.op", s"$op.from-bytes")(f(TocEncoder.fromBytes(payload)))
          t.span("core.op", s"$op.resident")(f(resident))
          t.span("baselines.csr_op", op)(f(c))
        }
      case _ =>
      }
      pass += 1
    }
    t.epoch = -1; t.batch = -1
  }

  /** Both losses are finite and below the initial loss; the TOC- and
    * CSR-trained parameters agree; each TOC batch gives CSR's `A·v`.
    */
  def check(): Unit = {
    val tocLoss = SparkMgd.meanLoss(toc, tocModel)
    val csrLoss = SparkMgd.meanLoss(csr, csrModel)
    run.check(s"TOC loss $tocLoss not finite and below $initialLoss")(tocLoss.isFinite && tocLoss < initialLoss)
    run.check(s"CSR loss $csrLoss not finite and below $initialLoss")(csrLoss.isFinite && csrLoss < initialLoss)
    run.check("TOC and CSR parameters differ")(Compare.relErr(tocModel.params, csrModel.params) <= 1e-6)
    val v = Array.tabulate(spec.cols)(j => math.sin(j + run.seed.toDouble))
    val csrById = csr.collect().map(r => r.batch_id -> r).toMap
    toc.collect().foreach { r =>
      run.check(s"TOC and CSR A·v differ on batch ${r.batch_id}") {
        val a = SparkMiniBatch.decodeBatch(r).x.timesVector(v)
        Compare.relErr(a, SparkMiniBatch.decodeBatch(csrById(r.batch_id)).x.timesVector(v)) <= 1e-9
      }
    }
  }

  def tocBytesPerDenseByte: Double = {
    val rows = toc.collect()
    rows.map(_.x.length - 1L).sum.toDouble / rows.map(r => 8L * r.n * spec.cols + 8L).sum
  }

  def meta: Map[String, Any] = Map(
    "rows" -> Map(spec.name -> Rows), "batch_rows" -> BatchRows,
    "spark_master" -> Option(spark).map(_.sparkContext.master).getOrElse(s"local[$slots]"),
    "spark_slots" -> slots, "partitions" -> Partitions)
}

/** Collects task and stage events, keyed by the epoch whose job they
  * belong to (the `EpochKey` local property). After each traced epoch the
  * driver turns that epoch's events into spans under the epoch's span and
  * into per-epoch counts.
  */
final class EpochListener extends SparkListener {
  private final case class Task(stage: Int, launch: Long, finish: Long, run: Long, deser: Long, delay: Long, result: Long)
  private final case class Stage(id: Int, submitted: Long, completed: Long)
  private val stageKey = new ConcurrentHashMap[Int, String]
  private val jobKey = new ConcurrentHashMap[Int, String]
  private val ended = ConcurrentHashMap.newKeySet[String]
  private val tasks = new ConcurrentLinkedQueue[Task]
  private val stages = new ConcurrentLinkedQueue[Stage]

  private def key(p: java.util.Properties) = Option(p).flatMap(q => Option(q.getProperty(EpochListener.EpochKey))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = jobKey.put(e.jobId, key(e.properties))
  override def onJobEnd(e: SparkListenerJobEnd): Unit = Option(jobKey.remove(e.jobId)).foreach(ended.add)
  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stageKey.put(e.stageInfo.stageId, key(e.properties))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val i = e.taskInfo
    val m = e.taskMetrics
    if (m != null) {
      val duration = i.finishTime - i.launchTime
      val gettingResult = if (i.gettingResultTime > 0) i.finishTime - i.gettingResultTime else 0L
      // Scheduler delay as Spark's own UI defines it.
      val delay = math.max(0L, duration - m.executorRunTime - m.executorDeserializeTime -
        m.resultSerializationTime - gettingResult)
      tasks.add(Task(e.stageId, i.launchTime, i.finishTime, m.executorRunTime,
        m.executorDeserializeTime, delay, m.resultSize))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val s = e.stageInfo
    stages.add(Stage(s.stageId, s.submissionTime.getOrElse(0L), s.completionTime.getOrElse(0L)))
  }

  /** Wait until the job of epoch `k` has ended on the listener bus, then
    * record its stages and tasks as spans under `epochSpan` (wall-clock ms
    * mapped onto the tracer's clock) and its per-task sums as counts.
    * Events of earlier epochs that were not traced are dropped.
    */
  def flush(t: Tracer, k: String, epochSpan: Int, epochMs: Double, tag: String): Unit = {
    val waitUntil = System.nanoTime() + 10000000000L
    while (!ended.contains(k) && System.nanoTime() < waitUntil) Thread.sleep(1)
    ended.clear()
    val offsetNs = System.nanoTime() - System.currentTimeMillis() * 1000000L
    def ns(ms: Long) = ms * 1000000L + offsetNs
    def mine(stage: Int) = stageKey.get(stage) == k
    val ss = Iterator.continually(stages.poll()).takeWhile(_ != null).filter(s => mine(s.id)).toSeq
    val ts = Iterator.continually(tasks.poll()).takeWhile(_ != null).filter(x => mine(x.stage)).toSeq
    stageKey.clear()
    val stageSpan = ss.map(s => s.id -> t.addSpan("sparkml.stage", tag, ns(s.submitted), ns(s.completed), epochSpan)).toMap
    ts.foreach(x => t.addSpan("sparkml.task", tag, ns(x.launch), ns(x.finish), stageSpan.getOrElse(x.stage, epochSpan)))
    t.count("sparkml.task_run_ms", tag, ts.map(_.run).sum.toDouble, epochSpan)
    t.count("sparkml.task_run_max_ms", tag, ts.map(_.run).maxOption.getOrElse(0L).toDouble, epochSpan)
    t.count("sparkml.task_deser_ms", tag, ts.map(_.deser).sum.toDouble, epochSpan)
    t.count("sparkml.sched_delay_ms", tag, ts.map(_.delay).sum.toDouble, epochSpan)
    t.count("sparkml.result_kb", tag, ts.map(_.result).sum / 1024.0, epochSpan)
    t.count("sparkml.driver_ms", tag, epochMs - ss.map(s => (s.completed - s.submitted).toDouble).sum, epochSpan)
  }
}

object EpochListener {
  /** Spark local property that names the epoch a job belongs to. */
  val EpochKey = "perfbench.epoch"
}
