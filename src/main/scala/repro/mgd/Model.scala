package repro.mgd

/** A model trainable by mini-batch SGD (Equation 2).
  *
  * `step` performs one MGD update `h ← h − λ · (1/|B|) Σ ∂ℓ/∂h` using the
  * compressed kernels of the batch's encoding; `loss` evaluates the
  * empirical risk on a batch. Both drivers call them only through
  * [[Mgd.epoch]] and [[Mgd.lossSum]]. Parameters are exposed flattened so
  * the Spark driver can average the partitions' models, weighted by the
  * rows each partition decoded.
  */
trait Model extends Serializable {
  /** One MGD update on `batch` with learning rate `lr` (in place). */
  def step(batch: MiniBatch, lr: Double): Unit

  /** Mean loss over the batch. */
  def loss(batch: MiniBatch): Double

  /** Flattened parameter vector (copy). */
  def params: Array[Double]

  /** Overwrite parameters from a flattened vector. */
  def setParams(p: Array[Double]): Unit

  /** Deep copy (same hyper-structure, copied parameters). */
  def copyModel: Model
}

/** Shared numeric helpers for the models. */
object MathOps {
  @inline def sigmoid(z: Double): Double =
    if (z >= 0) 1.0 / (1.0 + math.exp(-z)) else { val e = math.exp(z); e / (1.0 + e) }

  /** Numerically-stable log(sigmoid(z)). */
  @inline def logSigmoid(z: Double): Double =
    if (z >= 0) -math.log1p(math.exp(-z)) else z - math.log1p(math.exp(z))
}
