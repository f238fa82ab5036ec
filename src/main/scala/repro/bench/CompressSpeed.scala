package repro.bench

import repro.data.{DatasetSpec, Datasets}
import repro.linalg.Encodings

/** §5.4 harness (Figure 12 analog): compression and decompression times
  * of Snappy, Gzip and TOC on a 250-row mini-batch. The paper's shape:
  * TOC compresses slower than Snappy but faster than Gzip, and
  * decompresses faster than both.
  */
object CompressSpeed {

  final case class Row(dataset: String, method: String, compressSec: Double, decompressSec: Double)

  val methods: Seq[String] = Seq("Snappy", "Gzip", "TOC")

  val BatchRows: Int = 250
  val Reps: Int = 10

  /** The §5.4 table, on the census-, imagenet- and kdd99-like batches. */
  def table(): Seq[Row] = Seq(Datasets.census, Datasets.imagenet, Datasets.kdd99).flatMap(benchDataset)

  private def benchDataset(spec: DatasetSpec): Seq[Row] = {
    val (x, _) = Datasets.slice(spec, 0, BatchRows)
    methods.map { name =>
      val enc = Encodings.byName(name)
      val mk = BenchUtil.timedOperand(enc.encode(x))
      Row(spec.name, name,
        compressSec = BenchUtil.warmMedianSec(Reps)(enc.encode(x)),
        decompressSec = BenchUtil.warmMedianSec(Reps)(mk().decode))
    }
  }

  def render(rows: Seq[Row]): String =
    BenchUtil.renderTable(
      Seq("dataset", "method", "compress", "decompress"),
      rows.map(r => Seq(r.dataset, r.method, BenchUtil.fmtSec(r.compressSec), BenchUtil.fmtSec(r.decompressSec))))
}
