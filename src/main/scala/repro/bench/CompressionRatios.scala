package repro.bench

import repro.baselines.CsrEncoder
import repro.core.TocEncoder
import repro.data.{DatasetSpec, Datasets}
import repro.linalg.Encodings

/** §5.1 harness: compression ratios of every method on mini-batches of
  * the paper's sizes (Figure 5) plus the TOC ablation variants
  * (Figure 6). Ratio = DEN bytes / method bytes, averaged over sampled
  * batches. Backs the Table 6/7 memory-fit decisions.
  */
object CompressionRatios {

  final case class Row(dataset: String, method: String, batchRows: Int, ratio: Double)

  /** Consecutive batches each ratio is averaged over. */
  val NumBatches: Int = 4

  /** Mean compression ratio of `method` over [[NumBatches]] sampled batches. */
  def ratioFor(spec: DatasetSpec, batchRows: Int, method: String): Double = {
    val enc = Encodings.byName(method)
    val ratios = (0 until NumBatches).map { b =>
      val (x, _) = Datasets.slice(spec, b.toLong * batchRows, batchRows)
      x.denSizeBytes.toDouble / enc.encode(x).sizeBytes
    }
    ratios.sum / ratios.size
  }

  /** TOC ablation (Figure 6): sparse-only / sparse+logical / full ratios.
    * Sparse-only is §3's sparse encoding laid end to end, CSR's bytes.
    */
  final case class Ablation(sparse: Double, sparseLogical: Double, full: Double)

  /** The Figure 6 table, on each moderate-sparsity analog's first 250 rows. */
  def ablations(): Seq[(DatasetSpec, Ablation)] =
    Seq(Datasets.census, Datasets.imagenet, Datasets.kdd99, Datasets.mnist).map(s => s -> ablationFor(s))

  private def ablationFor(spec: DatasetSpec): Ablation = {
    val (x, _) = Datasets.slice(spec, 0, 250)
    val den = x.denSizeBytes.toDouble
    val toc = TocEncoder.encode(x)
    Ablation(
      sparse = den / CsrEncoder.encode(x).sizeBytes,
      sparseLogical = den / TocEncoder.sparseLogicalSizeBytes(toc),
      full = den / toc.sizeBytes)
  }

  /** The §5.1 table: every analog's sweep on 250-row batches. */
  def table(): Seq[Row] = Datasets.all.flatMap(sweep(_, 250))

  /** Full sweep for one dataset at one batch size. */
  def sweep(spec: DatasetSpec, batchRows: Int): Seq[Row] =
    Encodings.all.map(e => Row(spec.name, e.name, batchRows, ratioFor(spec, batchRows, e.name)))

  def render(rows: Seq[Row]): String =
    BenchUtil.renderTable(
      Seq("dataset", "batch", "method", "ratio (x)"),
      rows.map(r => Seq(r.dataset, r.batchRows.toString, r.method, f"${r.ratio}%.2f")))
}
