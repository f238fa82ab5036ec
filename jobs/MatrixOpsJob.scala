package repro.jobs

import repro.bench.{BenchUtil, CompressSpeed, CompressionRatios, MatrixOps}

/** Entrypoint for the supporting measurements that back Tables 6/7's
  * analysis: §5.1 compression ratios (Fig. 5/6), §5.2 matrix-op runtimes
  * (Fig. 8), §5.4 (de)compression speed (Fig. 12). No SparkSession needed
  * — these are the single-node kernel measurements.
  */
object MatrixOpsJob {
  def main(args: Array[String]): Unit = {
    BenchUtil.report("Compression ratios (250-row mini-batches)",
      CompressionRatios.render(CompressionRatios.table()))

    val abl = CompressionRatios.ablations().map { case (s, a) =>
      Seq(s.name, f"${a.sparse}%.2f", f"${a.sparseLogical}%.2f", f"${a.full}%.2f")
    }
    BenchUtil.report("TOC ablation (ratios)",
      BenchUtil.renderTable(Seq("dataset", "TOC_SPARSE", "TOC_SPARSE_AND_LOGICAL", "TOC_FULL"), abl))

    BenchUtil.report("Matrix op runtimes (250-row mini-batches)", MatrixOps.render(MatrixOps.table()))

    BenchUtil.report("Compression/decompression speed", CompressSpeed.render(CompressSpeed.table()))
  }
}
