package repro.mgd

import repro.linalg.{DenseMatrix, MatrixEncoder}

/** Mini-batch SGD (§2.1.2, Equation 2): the one per-batch step loop and
  * the one loss sum, which the local driver here and the Spark tasks of
  * [[repro.sparkml.SparkMgd]] both run.
  *
  * Follows the paper's protocol: shuffle once up front (§2.1.3) — here
  * batches are materialized in an already-shuffled order by the dataset
  * generator — then visit every mini-batch per epoch for a fixed number
  * of epochs (§5.3 uses 10).
  */
object Mgd {
  /** The trained model and the mean loss over all batches after each epoch. */
  final case class TrainResult(model: Model, lossPerEpoch: Seq[Double])

  /** One epoch: step `model` in place once per batch, in order; returns
    * the rows stepped over.
    */
  def epoch(batches: Iterator[MiniBatch], model: Model, lr: Double): Long = {
    var rows = 0L
    batches.foreach { b => model.step(b, lr); rows += b.size }
    rows
  }

  /** Batch-size-weighted loss sum over `batches`, and their row count. */
  def lossSum(batches: Iterator[MiniBatch], model: Model): (Double, Long) = {
    var s = 0.0; var rows = 0L
    batches.foreach { b => s += model.loss(b) * b.size; rows += b.size }
    (s, rows)
  }

  /** Train `model` in place over `batches` for `epochs`. */
  def train(batches: IndexedSeq[MiniBatch], model: Model, lr: Double, epochs: Int): TrainResult =
    TrainResult(model, Seq.fill(epochs) { epoch(batches.iterator, model, lr); meanLoss(batches, model) })

  /** Mean loss over all batches (batch-size weighted). */
  def meanLoss(batches: IndexedSeq[MiniBatch], model: Model): Double = {
    val (s, rows) = lossSum(batches.iterator, model)
    s / rows
  }

  /** Slice a dense dataset + labels into encoded mini-batches of
    * `batchSize` rows (the last batch may be short).
    */
  def makeBatches(
      x: DenseMatrix, y: Array[Double], batchSize: Int, encoder: MatrixEncoder
  ): IndexedSeq[MiniBatch] = {
    require(x.rows == y.length)
    (0 until x.rows by batchSize).map { from =>
      val to = math.min(from + batchSize, x.rows)
      val slice = new DenseMatrix(to - from, x.cols,
        java.util.Arrays.copyOfRange(x.data, from * x.cols, to * x.cols))
      MiniBatch(encoder.encode(slice), java.util.Arrays.copyOfRange(y, from, to))
    }
  }
}
