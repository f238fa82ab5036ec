package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchUtil, EndToEnd}

/** What the spark-submit entrypoints share. */
object Jobs {
  /** Runs `f` on a session at `SPARK_MASTER` (`local[*]` if unset), then stops it. */
  def withSpark(title: String)(f: SparkSession => Unit): Unit = {
    val spark = SparkSession.builder().appName(s"TOC $title")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try f(spark) finally spark.stop()
  }

  /** Runs and prints an end-to-end table (Table 6 or 7), one analog at a time. */
  def printEndToEnd(title: String, table: Seq[EndToEnd.Config]): Unit = withSpark(title) { spark =>
    for (cfg <- table)
      BenchUtil.report(s"$title — ${cfg.spec.name}", EndToEnd.render(EndToEnd.run(cfg, Some(spark))))
  }
}
