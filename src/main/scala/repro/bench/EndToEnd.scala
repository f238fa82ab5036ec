package repro.bench

import org.apache.spark.sql.SparkSession
import repro.data.{DatasetSpec, Datasets}
import repro.io.StorageSim
import repro.linalg.Encodings
import repro.mgd._
import repro.sparkml.{SparkMgd, SparkMiniBatch}

/** Tables 6 and 7 harness: end-to-end MGD runtimes per encoding per model.
  *
  * Protocol mirrors §5.3: the dataset is divided into 250-row
  * mini-batches encoded once per method (encoding time excluded — "a
  * one-time cost amortized among different ML models"); MGD runs a fixed
  * number of epochs; reported time = initial data load + per-epoch IO +
  * training compute.
  *
  * Scaling substitution (DESIGN.md §4): compute is *measured* at the
  * analog scale (`smallRows`); the paper's 25x-larger variant is modeled
  * as `measured compute x LargeScale` (per-epoch compute is linear in
  * batch count) plus IO from [[StorageSim]]. The memory budget is set
  * between the TOC-encoded size and the smallest LMC-encoded size at
  * large scale — the configuration §5.3 states in prose ("only
  * mini-batches encoded using Snappy, Gzip, and TOC fit into memory").
  */
object EndToEnd {

  /** Method rows of Tables 6/7 (CLA appears only in ratio/op benches,
    * matching the paper).
    */
  val localMethods: Seq[String] = Seq("TOC", "DEN", "CSR", "CVI", "DVI", "Snappy", "Gzip")

  /** The in-system rows (Bismarck analog): Spark per-partition MGD. */
  val sparkMethods: Seq[String] = Seq("TOC", "DEN", "CSR")

  /** The paper's large variant has 25x the rows of the small one. */
  val LargeScale: Int = 25
  val BatchSize: Int = 250
  val Epochs: Int = 2
  val LearningRate: Double = 0.05
  /** The paper's machine pairs a ~150 MB/s disk with multithreaded C++
    * kernels ~7x faster than our single-thread JVM kernels (derived from
    * their Imagenet1m NN per-row time); the simulated disk is scaled by
    * the same factor so the IO:compute proportion of the paper's machine
    * is preserved (EXPERIMENTS.md, methodology).
    */
  val DiskMbPerSec: Double = 20.0
  val SparkPartitions: Int = 8

  final case class Config(spec: DatasetSpec, smallRows: Int)

  /** Table 6's analogs (ImageNet, Mnist) and Table 7's (Census, Kdd99), at their bench rows. */
  val Table6: Seq[Config] = Seq(Datasets.imagenet, Datasets.mnist).map(atAnalogRows)
  val Table7: Seq[Config] = Seq(Datasets.census, Datasets.kdd99).map(atAnalogRows)
  private def atAnalogRows(spec: DatasetSpec): Config = Config(spec, Table5.analogRows(spec.name).toInt)

  /** The model kinds of the tables' columns, in column order. */
  val Kinds: Seq[String] = Seq("NN", "LR", "SVM")

  final case class Cell(computeSec: Double, smallTotalSec: Double, largeTotalSec: Double)

  final case class MethodRow(
      method: String,
      encodedBytes: Long,   // at smallRows scale
      fitsLarge: Boolean,
      cells: Map[String, Cell]) // by kind

  final case class Result(config: Config, memoryBudgetBytes: Long, rows: Seq[MethodRow])

  private def freshModel(kind: String, spec: DatasetSpec): Model = kind match {
    case "NN" => NeuralNet.paper(spec.cols, spec.numClasses)
    case "LR" =>
      if (spec.numClasses <= 2) new LogisticRegression(spec.cols)
      else new OneVsRest(spec.numClasses, _ => new LogisticRegression(spec.cols))
    case "SVM" =>
      if (spec.numClasses <= 2) new Svm(spec.cols)
      else new OneVsRest(spec.numClasses, _ => new Svm(spec.cols))
  }

  /** Run the three models over pre-encoded local batches; returns
    * (method, measured compute seconds, encoded size) per model kind.
    */
  private def measureLocal(cfg: Config, method: String): (Long, Map[String, Double]) = {
    val (x, y) = Datasets.slice(cfg.spec, 0, cfg.smallRows)
    val batches = Mgd.makeBatches(x, y, BatchSize, Encodings.byName(method))
    val encodedBytes = batches.map(b => b.x.sizeBytes + 8L * b.size).sum
    val times = Kinds.map { kind =>
      // Warm the kernel paths on a throwaway model, then measure with a
      // settled heap — keeps JIT/GC order effects out of the table rows.
      val warm = freshModel(kind, cfg.spec)
      batches.take(2).foreach(b => warm.step(b, LearningRate))
      System.gc()
      val model = freshModel(kind, cfg.spec)
      val (_, sec) = BenchUtil.timeSec(Mgd.train(batches, model, LearningRate, Epochs))
      kind -> sec
    }.toMap
    (encodedBytes, times)
  }

  /** Spark in-system rows: generate + encode via per-partition functions,
    * train with model averaging; wall time measured per model kind.
    */
  private def measureSpark(cfg: Config, method: String, spark: SparkSession): (Long, Map[String, Double]) = {
    val df = SparkMiniBatch.generateDf(spark, cfg.spec, cfg.smallRows, SparkPartitions)
    val batches = SparkMiniBatch.encodeBatches(df, BatchSize, method).cache()
    batches.count() // materialize encoding once, like the one-time cost
    val encodedBytes = SparkMiniBatch.encodedSizeBytes(batches)
    val times = Kinds.map { kind =>
      val model = freshModel(kind, cfg.spec)
      val (_, sec) = BenchUtil.timeSec(SparkMgd.train(batches, model, LearningRate, Epochs))
      kind -> sec
    }.toMap
    batches.unpersist()
    (encodedBytes, times)
  }

  /** The §5.3 memory budget: between TOC's and the smallest LMC's
    * large-scale encoded sizes (geometric midpoint), so the paper's
    * stated fit pattern holds by construction.
    */
  def memoryBudget(sizesLarge: Map[String, Long]): Long = {
    val toc = sizesLarge("TOC")
    val minLmc = Seq("DEN", "CSR", "CVI", "DVI").map(sizesLarge).min
    math.sqrt(toc.toDouble * minLmc.toDouble).toLong
  }

  def run(cfg: Config, spark: Option[SparkSession] = None): Result = {
    val measured: Seq[(String, Long, Map[String, Double])] =
      localMethods.map { m =>
        val (bytes, times) = measureLocal(cfg, m)
        (m, bytes, times)
      } ++ spark.toSeq.flatMap { s =>
        sparkMethods.map { m =>
          val (bytes, times) = measureSpark(cfg, m, s)
          (s"Spark$m", bytes, times)
        }
      }

    val sizesLargeLocal = measured.collect {
      case (m, bytes, _) if localMethods.contains(m) => m -> bytes * LargeScale
    }.toMap
    val budget = memoryBudget(sizesLargeLocal)
    val smallBudget = measured.map(_._2).max * 2 // everything fits at small scale
    val simLarge = StorageSim(budget, DiskMbPerSec * 1024 * 1024)
    val simSmall = StorageSim(smallBudget, DiskMbPerSec * 1024 * 1024)

    val rows = measured.map { case (method, bytes, times) =>
      val largeBytes = bytes * LargeScale
      def cell(kind: String): Cell = {
        val compute = times(kind)
        Cell(
          computeSec = compute,
          smallTotalSec = compute + simSmall.totalIoSeconds(bytes, Epochs),
          largeTotalSec = compute * LargeScale + simLarge.totalIoSeconds(largeBytes, Epochs))
      }
      MethodRow(method, bytes, simLarge.fits(largeBytes), Kinds.map(k => k -> cell(k)).toMap)
    }
    Result(cfg, budget, rows)
  }

  def render(r: Result): String = {
    val header = Seq("method", "enc size", "fits@large") ++
      Kinds.map(_ + " small") ++ Kinds.map(_ + " large")
    val body = r.rows.map { row =>
      Seq(row.method, BenchUtil.fmtBytes(row.encodedBytes), if (row.fitsLarge) "yes" else "NO") ++
        Kinds.map(k => BenchUtil.fmtSec(row.cells(k).smallTotalSec)) ++
        Kinds.map(k => BenchUtil.fmtSec(row.cells(k).largeTotalSec))
    }
    val cfg = r.config
    s"dataset=${cfg.spec.name} smallRows=${cfg.smallRows} largeScale=${LargeScale}x " +
      s"epochs=$Epochs batch=$BatchSize memBudget=${BenchUtil.fmtBytes(r.memoryBudgetBytes)}\n" +
      BenchUtil.renderTable(header, body)
  }

  /** Speedup of TOC over `other` on the large config for a model kind. */
  def speedupLarge(r: Result, other: String, kind: String): Double = {
    val toc = r.rows.find(_.method == "TOC").get
    val o = r.rows.find(_.method == other).get
    o.cells(kind).largeTotalSec / toc.cells(kind).largeTotalSec
  }
}
