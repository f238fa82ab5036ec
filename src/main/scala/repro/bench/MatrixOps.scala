package repro.bench

import repro.data.{DatasetSpec, Datasets}
import repro.linalg.{DenseMatrix, Encodings}

/** §5.2 harness (Figure 8 analog): runtimes of the four op classes on a
  * 250-row compressed mini-batch, per method per dataset. Supports the
  * Table 6/7 explanations (why TOC wins `A·M`/`M·A`, trails CSR on
  * `A·v`, and why Gzip/Snappy are orders slower).
  */
object MatrixOps {

  final case class Row(dataset: String, method: String, op: String, seconds: Double)

  val ops: Seq[String] = Seq("A.*c", "A.v", "v.A", "A.M", "M.A")

  val BatchRows: Int = 250
  /** Columns `p` of the `M` operands. */
  val MCols: Int = 20
  val Reps: Int = 5

  /** The §5.2 table, on the census-, imagenet- and kdd99-like batches. */
  def table(): Seq[Row] = Seq(Datasets.census, Datasets.imagenet, Datasets.kdd99).flatMap(benchDataset)

  private def benchDataset(spec: DatasetSpec): Seq[Row] = {
    val (x, _) = Datasets.slice(spec, 0, BatchRows)
    val v = Array.tabulate(spec.cols)(j => math.sin(j + 1.0))
    val vLeft = Array.tabulate(BatchRows)(i => math.cos(i + 1.0))
    val m = DenseMatrix.rand(spec.cols, MCols, seed = 7)
    val mLeft = DenseMatrix.rand(MCols, BatchRows, seed = 8)

    Encodings.all.flatMap { enc =>
      val name = enc.name
      val mk = BenchUtil.timedOperand(enc.encode(x))
      Seq(
        Row(spec.name, name, "A.*c", BenchUtil.warmMedianSec(Reps)(mk().timesScalar(1.0001))),
        Row(spec.name, name, "A.v", BenchUtil.warmMedianSec(Reps)(mk().timesVector(v))),
        Row(spec.name, name, "v.A", BenchUtil.warmMedianSec(Reps)(mk().vectorTimes(vLeft))),
        Row(spec.name, name, "A.M", BenchUtil.warmMedianSec(Reps)(mk().timesMatrix(m))),
        Row(spec.name, name, "M.A", BenchUtil.warmMedianSec(Reps)(mk().leftTimes(mLeft))))
    }
  }

  def render(rows: Seq[Row]): String = {
    val methods = rows.map(_.method).distinct
    val grouped = rows.groupBy(r => (r.dataset, r.op))
    val lines = for {
      ds <- rows.map(_.dataset).distinct
      op <- ops
    } yield {
      val per = grouped.getOrElse((ds, op), Nil).map(r => r.method -> r.seconds).toMap
      Seq(ds, op) ++ methods.map(m => per.get(m).map(BenchUtil.fmtSec).getOrElse("-"))
    }
    BenchUtil.renderTable(Seq("dataset", "op") ++ methods, lines)
  }
}
