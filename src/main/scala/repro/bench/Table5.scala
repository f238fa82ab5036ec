package repro.bench

import repro.data.{DatasetSpec, Datasets}

/** Table 5 harness: dataset statistics — dimensions, (text) size, and
  * sparsity — for the synthetic analogs, printed next to the paper's
  * values for the real datasets they stand in for.
  *
  * The analogs run at a reduced row count ([[SampleRows]]); size is the
  * measured text serialization of the generated sample extrapolated to
  * the analog's full bench row count, mirroring how Table 5 reports the
  * text-format dataset sizes.
  */
object Table5 {

  final case class Row(
      spec: DatasetSpec,
      analogRows: Long,
      measuredSparsity: Double,
      textBytesAtAnalogScale: Long)

  /** Rows used by the end-to-end benches for each analog ("full" scale). */
  val analogRows: Map[String, Long] = Map(
    "census-like"   -> 30000L,
    "imagenet-like" -> 6000L,
    "mnist-like"    -> 6000L,
    "kdd99-like"    -> 30000L,
    "rcv1-like"     -> 30000L,
    "deep1b-like"   -> 30000L)

  val SampleRows: Int = 2000

  def measure(spec: DatasetSpec): Row = {
    val (x, y) = Datasets.slice(spec, 0, SampleRows)
    val rowsFull = analogRows(spec.name)
    val textPerRow = Datasets.textBytes(x, y).toDouble / SampleRows
    Row(spec, rowsFull, x.sparsity, (textPerRow * rowsFull).toLong)
  }

  def measureAll(): Seq[Row] = Datasets.all.map(measure(_))

  def render(rows: Seq[Row]): String =
    BenchUtil.renderTable(
      Seq("analog", "paper dataset", "paper dims", "paper size", "paper sparsity",
          "analog dims", "analog text size", "measured sparsity"),
      rows.map { r =>
        Seq(
          r.spec.name, r.spec.paperName, r.spec.paperDims,
          f"${r.spec.paperSizeGb}%.2f GB", f"${r.spec.paperSparsity}%.4f",
          s"${r.analogRows} x ${r.spec.cols}",
          BenchUtil.fmtBytes(r.textBytesAtAnalogScale),
          f"${r.measuredSparsity}%.4f")
      })
}
