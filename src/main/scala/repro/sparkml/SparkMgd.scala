package repro.sparkml

import org.apache.spark.sql.Dataset
import repro.mgd.{Mgd, Model}

/** Distributed MGD over encoded mini-batches (DESIGN.md §3).
  *
  * Per epoch: broadcast the current parameters, run *sequential* MGD over
  * each partition's compressed batches inside the executor (the paper's
  * UDF-updates-model-in-arena pattern, App. D.1), then average the
  * partition models weighted by their row counts — the classical
  * parallel mini-batch training scheme the paper cites for NN ([13],
  * parameter averaging). With one partition this is exactly sequential
  * MGD, which the tests assert.
  */
object SparkMgd {

  /** One epoch of per-partition training + parameter averaging. */
  def trainEpoch(batches: Dataset[EncodedBatchRow], model: Model, lr: Double): Model = {
    val spark = batches.sparkSession
    val bcModel = spark.sparkContext.broadcast(model)
    val partials = batches.rdd
      .mapPartitions { it =>
        val local = bcModel.value.copyModel
        var rows = 0L
        it.foreach { row =>
          local.step(SparkMiniBatch.decodeBatch(row), lr)
          rows += row.n
        }
        if (rows == 0) Iterator.empty else Iterator.single((local.params, rows))
      }
      .collect()
    bcModel.destroy()
    require(partials.nonEmpty, "no data in any partition")

    val dim = partials.head._1.length
    val avg = new Array[Double](dim)
    val totalRows = partials.map(_._2).sum.toDouble
    partials.foreach { case (p, rows) =>
      val w = rows / totalRows
      var i = 0
      while (i < dim) { avg(i) += w * p(i); i += 1 }
    }
    val out = model.copyModel
    out.setParams(avg)
    out
  }

  /** Mean loss over all batches under the current model (SQL-free: one
    * pass of the compressed kernels per partition).
    */
  def meanLoss(batches: Dataset[EncodedBatchRow], model: Model): Double = {
    val spark = batches.sparkSession
    val bcModel = spark.sparkContext.broadcast(model)
    val (lossSum, rowSum) = batches.rdd
      .mapPartitions { it =>
        val local = bcModel.value
        var s = 0.0; var n = 0L
        it.foreach { row =>
          val b = SparkMiniBatch.decodeBatch(row)
          s += local.loss(b) * b.size
          n += b.size
        }
        Iterator.single((s, n))
      }
      .reduce((a, b) => (a._1 + b._1, a._2 + b._2))
    bcModel.destroy()
    lossSum / rowSum
  }

  /** Full training loop: `epochs` rounds of epoch + averaging, each
    * followed by the mean loss over all batches, as [[Mgd.train]] records.
    */
  def train(batches: Dataset[EncodedBatchRow], model: Model, lr: Double, epochs: Int): Mgd.TrainResult = {
    var cur = model
    val losses = Seq.newBuilder[Double]
    var e = 0
    while (e < epochs) {
      cur = trainEpoch(batches, cur, lr)
      losses += meanLoss(batches, cur)
      e += 1
    }
    Mgd.TrainResult(cur, losses.result())
  }
}
