package repro.mgd

import repro.linalg.{DenseMatrix, MatrixEncoder}

/** Local (single-JVM) mini-batch SGD driver (§2.1.2, Equation 2).
  *
  * Follows the paper's protocol: shuffle once up front (§2.1.3) — here
  * batches are materialized in an already-shuffled order by the dataset
  * generator — then visit every mini-batch per epoch for a fixed number
  * of epochs (§5.3 uses 10).
  */
object Mgd {
  /** The trained model and the mean loss over all batches after each epoch. */
  final case class TrainResult(model: Model, lossPerEpoch: Seq[Double])

  /** Train `model` in place over `batches` for `epochs`. */
  def train(batches: IndexedSeq[MiniBatch], model: Model, lr: Double, epochs: Int): TrainResult = {
    val losses = Seq.newBuilder[Double]
    var e = 0
    while (e < epochs) {
      var b = 0
      while (b < batches.length) { model.step(batches(b), lr); b += 1 }
      losses += meanLoss(batches, model)
      e += 1
    }
    TrainResult(model, losses.result())
  }

  /** Mean loss over all batches (batch-size weighted). */
  def meanLoss(batches: IndexedSeq[MiniBatch], model: Model): Double = {
    var s = 0.0; var n = 0L
    batches.foreach { b => s += model.loss(b) * b.size; n += b.size }
    s / n
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
