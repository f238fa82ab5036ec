package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchUtil, EndToEnd}
import repro.data.Datasets

/** spark-submit entrypoint reproducing Table 6 (end-to-end MGD runtimes
  * on the ImageNet and Mnist analogs, small/in-memory and large/
  * out-of-core configurations, local + Spark in-system rows).
  */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("toc-table6")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val rows = if (args.nonEmpty) args(0).toInt else 10000
      for (spec <- Seq(Datasets.imagenet, Datasets.mnist)) {
        val res = EndToEnd.run(EndToEnd.Config(spec, smallRows = rows), Some(spark))
        BenchUtil.report(s"Table 6 — ${spec.name}", EndToEnd.render(res))
      }
    } finally spark.stop()
  }
}
