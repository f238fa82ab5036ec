package repro.sparkml

import org.apache.spark.sql.Dataset
import repro.mgd.{Mgd, Model}

/** Distributed MGD over encoded mini-batches (DESIGN.md §3).
  *
  * Per epoch: broadcast the current parameters, run [[Mgd.epoch]] over
  * each partition's compressed batches inside the executor (the paper's
  * UDF-updates-model-in-arena pattern, App. D.1), then average the
  * partition models weighted by the rows each task decoded — the
  * classical parallel mini-batch training scheme the paper cites for NN
  * ([13], parameter averaging). With one partition this is the local
  * sequential MGD of [[Mgd.train]].
  */
object SparkMgd {

  /** One epoch of per-partition training + parameter averaging. */
  def trainEpoch(batches: Dataset[EncodedBatchRow], model: Model, lr: Double): Model = {
    val bcModel = batches.sparkSession.sparkContext.broadcast(model)
    val partials = batches.rdd
      .mapPartitions { it =>
        val local = bcModel.value.copyModel
        val rows = Mgd.epoch(it.map(SparkMiniBatch.decodeBatch), local, lr)
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
    * [[Mgd.lossSum]] over the compressed kernels per partition).
    */
  def meanLoss(batches: Dataset[EncodedBatchRow], model: Model): Double = {
    val bcModel = batches.sparkSession.sparkContext.broadcast(model)
    val (lossSum, rows) = batches.rdd
      .mapPartitions(it => Iterator.single(Mgd.lossSum(it.map(SparkMiniBatch.decodeBatch), bcModel.value)))
      .reduce((a, b) => (a._1 + b._1, a._2 + b._2))
    bcModel.destroy()
    lossSum / rows
  }

  /** Full training loop: `epochs` rounds of epoch + averaging, each
    * followed by the mean loss over all batches, as [[Mgd.train]] records.
    */
  def train(batches: Dataset[EncodedBatchRow], model: Model, lr: Double, epochs: Int): Mgd.TrainResult = {
    var cur = model
    val losses = Seq.fill(epochs) { cur = trainEpoch(batches, cur, lr); meanLoss(batches, cur) }
    Mgd.TrainResult(cur, losses)
  }
}
