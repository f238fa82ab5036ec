package repro.sparkml

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.CorruptBatchException
import repro.data.{DatasetSpec, Datasets}
import repro.linalg.{DenseMatrix, Encodings, MatrixCodec}
import repro.mgd.MiniBatch

/** One encoded mini-batch as carried through a Spark DataFrame: `x` is
  * the compressed matrix framed by [[MatrixCodec]] (a tag byte, then the
  * encoding's own bytes), `y` its labels as a Spark `array<double>`.
  */
final case class EncodedBatchRow(batch_id: Long, n: Int, x: Array[Byte], y: Array[Double])

/** The Spark-side substrate (DESIGN.md §3): mini-batches are assembled
  * and compressed by per-partition functions running inside executors —
  * the reproduction analog of the paper's Bismarck integration (App. D.1,
  * where compressed batches live as variable-length bytes fields in a
  * database table).
  */
object SparkMiniBatch {

  /** Generate a dataset analog as a DataFrame `(id, features, label)`.
    * Row content is the same pure function of (spec, id) the local path
    * uses, evaluated inside executors.
    */
  def generateDf(spark: SparkSession, spec: DatasetSpec, numRows: Long, numPartitions: Int): DataFrame = {
    import spark.implicits._
    spark.range(0, numRows, 1, numPartitions).mapPartitions { it =>
      val ctx = new Datasets.GenContext(spec)
      it.map { idRow =>
        val i = idRow
        val x = Datasets.row(ctx, i)
        (i, x, Datasets.label(ctx, i, x))
      }
    }.toDF("id", "features", "label")
  }

  /** Group each partition's rows into consecutive mini-batches of
    * `batchSize` and compress them with `encoderName` — the per-partition
    * UDF pattern: encoding happens next to the data, inside executors.
    */
  def encodeBatches(df: DataFrame, batchSize: Int, encoderName: String): Dataset[EncodedBatchRow] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col("features"), col("label").cast("double"))
      .as[(Array[Double], Double)]
      .mapPartitions { it =>
        val encoder = Encodings.byName(encoderName)
        val pid = org.apache.spark.TaskContext.getPartitionId()
        it.grouped(batchSize).zipWithIndex.map { case (rows, bi) =>
          val n = rows.size
          val cols = rows.head._1.length
          val data = new Array[Double](n * cols)
          val y = new Array[Double](n)
          var i = 0
          rows.foreach { case (feats, lbl) =>
            System.arraycopy(feats, 0, data, i * cols, cols)
            y(i) = lbl
            i += 1
          }
          val enc = encoder.encode(new DenseMatrix(n, cols, data))
          EncodedBatchRow(batchId(pid, bi), n, MatrixCodec.serialize(enc), y)
        }
      }
  }

  /** Id of batch `bi` of partition `pid`: unique, and ordered by
    * partition, then by batch.
    */
  def batchId(pid: Int, bi: Int): Long = (pid.toLong << 32) | bi

  /** Decode a DataFrame row back to a [[MiniBatch]] (executor side). The
    * row comes from outside the program, so its matrix rows, its labels
    * and its `n` must agree, or this throws [[CorruptBatchException]].
    */
  def decodeBatch(row: EncodedBatchRow): MiniBatch = {
    val x = MatrixCodec.deserialize(row.x)
    CorruptBatchException.check(x.numRows == row.y.length && row.y.length == row.n,
      s"batch ${row.batch_id}: ${x.numRows} matrix rows, ${row.y.length} labels, n = ${row.n}")
    MiniBatch(x, row.y)
  }

  /** Total encoded size of all batches, via a SQL aggregate: each matrix's
    * own bytes (its `sizeBytes`, without the tag) plus 8 per label, as
    * `EndToEnd` counts local batches.
    */
  def encodedSizeBytes(batches: Dataset[EncodedBatchRow]): Long = {
    val spark = batches.sparkSession
    import spark.implicits._
    batches.select(sum(length(col("x")) - 1 + size(col("y")) * 8).cast("long")).as[Long].head()
  }
}
