package repro.mgd

import MathOps._

/** A linear model trained by MGD with Table 1's op profile for LR and
  * SVM: per batch `z = A·w`, `u(i) = rowGrad(z(i), y(i))/n`, `∇ = u·A` —
  * one right multiplication and one left multiplication on the
  * compressed batch. LR and SVM differ only in the per-row loss and its
  * derivative with respect to `z`.
  */
abstract class LinearModel(val dim: Int, seed: Long) extends Model {
  var w: Array[Double] = LinearInit.smallRandom(dim, seed)

  /** Numerator of `u(i)`: the per-row loss's derivative in `z`, for label `y`. */
  protected def rowGrad(z: Double, y: Double): Double

  /** Per-row loss at score `z` for label `y`. */
  protected def rowLoss(z: Double, y: Double): Double

  def step(batch: MiniBatch, lr: Double): Unit = {
    val n = batch.size
    val z = batch.x.timesVector(w)                     // A·v
    val u = new Array[Double](n)
    var i = 0
    while (i < n) { u(i) = rowGrad(z(i), batch.y(i)) / n; i += 1 }
    val g = batch.x.vectorTimes(u)                     // v·A
    var j = 0
    while (j < dim) { w(j) -= lr * g(j); j += 1 }
  }

  def loss(batch: MiniBatch): Double = {
    val z = batch.x.timesVector(w)
    var s = 0.0
    var i = 0
    while (i < batch.size) { s += rowLoss(z(i), batch.y(i)); i += 1 }
    s / batch.size
  }

  def params: Array[Double] = w.clone()
  def setParams(p: Array[Double]): Unit = { require(p.length == dim); w = p.clone() }
}

/** Logistic regression with logistic loss (§2.1.4 / §5.3):
  * `u = (σ(A·w) − y)/n`.
  */
final class LogisticRegression(dim: Int) extends LinearModel(dim, seed = 42) {
  protected def rowGrad(z: Double, y: Double): Double = sigmoid(z) - y
  protected def rowLoss(z: Double, y: Double): Double =
    -(y * logSigmoid(z) + (1 - y) * logSigmoid(-z))

  def copyModel: LogisticRegression = {
    val m = new LogisticRegression(dim); m.w = w.clone(); m
  }
}

/** Linear support vector machine with hinge loss (§5.3).
  *
  * Subgradient per batch: rows with margin `y·(x·w) < 1` contribute
  * `−y·x/n`, labels `{0,1}` read as `{−1,+1}`.
  */
final class Svm(dim: Int) extends LinearModel(dim, seed = 43) {
  protected def rowGrad(z: Double, y: Double): Double = {
    val ys = 2 * y - 1
    if (ys * z < 1) -ys else 0.0
  }
  protected def rowLoss(z: Double, y: Double): Double = math.max(0.0, 1.0 - (2 * y - 1) * z)

  def copyModel: Svm = { val m = new Svm(dim); m.w = w.clone(); m }
}

/** One-versus-the-rest multi-class wrapper (§5.3: "the standard
  * one-versus-the-other technique"): trains `k` binary models per step —
  * on Mnist-like data this multiplies the matrix-op count by 10, which is
  * why the paper's LR/SVM speedups shrink there.
  */
final class OneVsRest(val k: Int, mk: Int => Model) extends Model {
  val models: Array[Model] = Array.tabulate(k)(mk)

  private def binary(batch: MiniBatch, c: Int): MiniBatch =
    MiniBatch(batch.x, batch.y.map(y => if (y == c) 1.0 else 0.0))

  def step(batch: MiniBatch, lr: Double): Unit = {
    var c = 0
    while (c < k) { models(c).step(binary(batch, c), lr); c += 1 }
  }

  def loss(batch: MiniBatch): Double = {
    var s = 0.0
    var c = 0
    while (c < k) { s += models(c).loss(binary(batch, c)); c += 1 }
    s / k
  }

  def params: Array[Double] = models.flatMap(_.params)
  def setParams(p: Array[Double]): Unit = {
    val sizes = models.map(_.params.length)
    require(p.length == sizes.sum, s"param length mismatch: ${p.length} vs ${sizes.sum}")
    var off = 0
    models.indices.foreach { c =>
      models(c).setParams(java.util.Arrays.copyOfRange(p, off, off + sizes(c)))
      off += sizes(c)
    }
  }
  def copyModel: OneVsRest = {
    val copy = new OneVsRest(k, mk)
    var c = 0
    while (c < k) { copy.models(c).setParams(models(c).params); c += 1 }
    copy
  }
}

private[mgd] object LinearInit {
  /** Small deterministic init so all encodings start identically. */
  def smallRandom(dim: Int, seed: Long): Array[Double] = {
    val rng = new scala.util.Random(seed)
    Array.fill(dim)((rng.nextDouble() - 0.5) * 0.01)
  }
}
