package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchUtil, EndToEnd}
import repro.data.Datasets

/** spark-submit entrypoint reproducing Table 7 (Appendix D.2: end-to-end
  * MGD runtimes on the Census and Kdd99 analogs).
  */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("toc-table7")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val rows = if (args.nonEmpty) args(0).toInt else 40000
      for (spec <- Seq(Datasets.census, Datasets.kdd99)) {
        val res = EndToEnd.run(EndToEnd.Config(spec, smallRows = rows), Some(spark))
        BenchUtil.report(s"Table 7 — ${spec.name}", EndToEnd.render(res))
      }
    } finally spark.stop()
  }
}
