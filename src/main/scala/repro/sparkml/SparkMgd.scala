package repro.sparkml

import org.apache.spark.TaskContext
import org.apache.spark.sql.Dataset
import repro.mgd.{Mgd, Model}

/** Distributed MGD over encoded mini-batches (DESIGN.md §3).
  *
  * Per epoch: one `runJob` whose task closure carries the model, inside
  * the task binary Spark broadcasts once per stage; it takes the
  * `TaskContext` so that Spark parses none of its own classes to clean it
  * (DESIGN.md §6). Each task runs [[Mgd.epoch]] on its own copy over its
  * partition's compressed batches (the paper's UDF-updates-model-in-arena
  * pattern, App. D.1); the driver averages the partition models, weighted
  * by the rows each task decoded, as in the parallel mini-batch training
  * the paper cites for NN ([13], parameter averaging). With one partition
  * this is the local sequential MGD of [[Mgd.train]].
  */
object SparkMgd {

  /** One epoch of per-partition training + parameter averaging. */
  def trainEpoch(batches: Dataset[EncodedBatchRow], model: Model, lr: Double): Model = {
    val sc = batches.sparkSession.sparkContext
    val partials = sc.runJob(batches.rdd, (_: TaskContext, it: Iterator[EncodedBatchRow]) => {
      val local = model.copyModel
      val rows = Mgd.epoch(it.map(SparkMiniBatch.decodeBatch), local, lr)
      (local.params, rows)
    }).filter(_._2 > 0)
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

  /** Mean loss over all batches under the current model: one
    * [[Mgd.lossSum]] per partition, summed in partition order.
    */
  def meanLoss(batches: Dataset[EncodedBatchRow], model: Model): Double = {
    val sums = batches.sparkSession.sparkContext.runJob(batches.rdd,
      (_: TaskContext, it: Iterator[EncodedBatchRow]) => Mgd.lossSum(it.map(SparkMiniBatch.decodeBatch), model))
    val rows = sums.map(_._2).sum
    require(rows > 0, "no data in any partition")
    sums.map(_._1).sum / rows
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
