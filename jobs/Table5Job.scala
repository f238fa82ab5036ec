package repro.jobs

import org.apache.spark.sql.functions._
import repro.bench.{BenchUtil, Table5}
import repro.data.Datasets
import repro.sparkml.SparkMiniBatch

/** spark-submit entrypoint reproducing Table 5 (dataset statistics).
  *
  * Prints the paper's datasets next to the synthetic analogs' measured
  * dimensions, text size and sparsity, and cross-checks the sparsity of
  * one analog via a Spark SQL aggregate over the generated DataFrame.
  */
object Table5Job {
  def main(args: Array[String]): Unit = Jobs.withSpark("Table 5") { spark =>
    BenchUtil.report("Table 5 — dataset statistics (paper vs analogs)",
      Table5.render(Table5.measureAll()))

    // Spark-side sparsity of the census analog, as a SQL aggregate.
    val df = SparkMiniBatch.generateDf(spark, Datasets.census, Table5.SampleRows,
      spark.sparkContext.defaultParallelism)
    val sparsity = df
      .select(explode(col("features")).as("v"))
      .agg((sum(when(col("v") =!= 0.0, 1).otherwise(0)) / count(lit(1))).as("sparsity"))
      .head().getDouble(0)
    println(f"census-like sparsity via Spark SQL: $sparsity%.4f")
  }
}
