package repro.mgd

import repro.linalg.DenseMatrix
import MathOps._

/** Feed-forward neural network matching §5.3's architecture: two hidden
  * layers (200 and 50 neurons) with sigmoid activations; sigmoid output +
  * cross-entropy for binary targets, softmax + cross-entropy for
  * multi-class.
  *
  * The compressed batch `A` appears in exactly Table 1's NN ops: the
  * forward pass computes `Z1 = A·W1` (right multiplication `A·M`) and the
  * backward pass computes `∇W1 = (Δ1ᵀ·A)ᵀ` (left multiplication `M·A`);
  * all deeper layers are dense-dense.
  */
final class NeuralNet(
    val dim: Int,
    val h1: Int,
    val h2: Int,
    val numClasses: Int // 2 → single sigmoid output unit; k>2 → softmax
) extends Model {
  import NeuralNet._

  val outUnits: Int = if (numClasses <= 2) 1 else numClasses

  var w1: DenseMatrix = glorot(dim, h1, Seed)
  var b1: Array[Double] = new Array[Double](h1)
  var w2: DenseMatrix = glorot(h1, h2, Seed + 1)
  var b2: Array[Double] = new Array[Double](h2)
  var w3: DenseMatrix = glorot(h2, outUnits, Seed + 2)
  var b3: Array[Double] = new Array[Double](outUnits)

  private def forward(batch: MiniBatch): Fwd = {
    val n = batch.size
    val z1 = batch.x.timesMatrix(w1)                       // A·M  (compressed)
    addBiasSigmoid(z1, b1)
    val z2 = z1.timesMatrix(w2)
    addBiasSigmoid(z2, b2)
    val z3 = z2.timesMatrix(w3)
    addBias(z3, b3)
    val out =
      if (outUnits == 1) new DenseMatrix(n, 1, z3.data.map(sigmoid))
      else softmaxRows(z3)
    Fwd(z1, z2, out)
  }

  def step(batch: MiniBatch, lr: Double): Unit = {
    val n = batch.size
    val f = forward(batch)
    val y = targets(batch)

    // Output delta for cross-entropy with sigmoid/softmax: (out − y)/n.
    val d3 = new DenseMatrix(n, outUnits,
      Array.tabulate(n * outUnits)(i => (f.out.data(i) - y.data(i)) / n))

    val gW3 = f.hh2.transpose.timesMatrix(d3)
    val gB3 = colSums(d3)
    val d2 = hadamardSigmoidGrad(d3.timesMatrix(w3.transpose), f.hh2)
    val gW2 = f.hh1.transpose.timesMatrix(d2)
    val gB2 = colSums(d2)
    val d1 = hadamardSigmoidGrad(d2.timesMatrix(w2.transpose), f.hh1)
    val gW1 = batch.x.leftTimes(d1.transpose).transpose    // M·A  (compressed)
    val gB1 = colSums(d1)

    axpyInPlace(w1.data, gW1.data, -lr); axpyInPlace(b1, gB1, -lr)
    axpyInPlace(w2.data, gW2.data, -lr); axpyInPlace(b2, gB2, -lr)
    axpyInPlace(w3.data, gW3.data, -lr); axpyInPlace(b3, gB3, -lr)
  }

  def loss(batch: MiniBatch): Double = {
    val f = forward(batch)
    val y = targets(batch)
    var s = 0.0
    var i = 0
    while (i < f.out.data.length) {
      val p = math.min(math.max(f.out.data(i), 1e-12), 1 - 1e-12)
      val t = y.data(i)
      s += (if (outUnits == 1) -(t * math.log(p) + (1 - t) * math.log(1 - p))
            else -t * math.log(p))
      i += 1
    }
    s / batch.size
  }

  /** Class-id labels → target matrix ({0,1} column or one-hot rows). */
  private def targets(batch: MiniBatch): DenseMatrix = {
    val n = batch.size
    if (outUnits == 1) new DenseMatrix(n, 1, batch.y.clone())
    else {
      val t = DenseMatrix.zeros(n, outUnits)
      var i = 0
      while (i < n) { t(i, batch.y(i).toInt) = 1.0; i += 1 }
      t
    }
  }

  // ---- small dense helpers -------------------------------------------------

  private def addBias(m: DenseMatrix, b: Array[Double]): Unit = {
    var i = 0
    while (i < m.rows) {
      var j = 0
      while (j < m.cols) { m(i, j) = m(i, j) + b(j); j += 1 }
      i += 1
    }
  }

  private def addBiasSigmoid(m: DenseMatrix, b: Array[Double]): Unit = {
    var i = 0
    while (i < m.rows) {
      var j = 0
      while (j < m.cols) { m(i, j) = sigmoid(m(i, j) + b(j)); j += 1 }
      i += 1
    }
  }

  private def softmaxRows(m: DenseMatrix): DenseMatrix = {
    val out = new Array[Double](m.data.length)
    var i = 0
    while (i < m.rows) {
      val base = i * m.cols
      var mx = Double.NegativeInfinity
      var j = 0
      while (j < m.cols) { mx = math.max(mx, m.data(base + j)); j += 1 }
      var z = 0.0
      j = 0
      while (j < m.cols) { out(base + j) = math.exp(m.data(base + j) - mx); z += out(base + j); j += 1 }
      j = 0
      while (j < m.cols) { out(base + j) /= z; j += 1 }
      i += 1
    }
    new DenseMatrix(m.rows, m.cols, out)
  }

  /** `d ∘ a(1−a)` — backprop through a sigmoid whose output was `a`. */
  private def hadamardSigmoidGrad(d: DenseMatrix, a: DenseMatrix): DenseMatrix =
    new DenseMatrix(d.rows, d.cols,
      Array.tabulate(d.data.length)(i => d.data(i) * a.data(i) * (1 - a.data(i))))

  private def colSums(m: DenseMatrix): Array[Double] = {
    val out = new Array[Double](m.cols)
    var i = 0
    while (i < m.rows) {
      var j = 0
      while (j < m.cols) { out(j) += m(i, j); j += 1 }
      i += 1
    }
    out
  }

  private def axpyInPlace(x: Array[Double], g: Array[Double], a: Double): Unit = {
    var i = 0
    while (i < x.length) { x(i) += a * g(i); i += 1 }
  }

  def params: Array[Double] =
    w1.data ++ b1 ++ w2.data ++ b2 ++ w3.data ++ b3

  def setParams(p: Array[Double]): Unit = {
    val expected = dim * h1 + h1 + h1 * h2 + h2 + h2 * outUnits + outUnits
    require(p.length == expected, s"param length mismatch: ${p.length} vs $expected")
    var off = 0
    def take(n: Int): Array[Double] = {
      val a = java.util.Arrays.copyOfRange(p, off, off + n); off += n; a
    }
    w1 = new DenseMatrix(dim, h1, take(dim * h1)); b1 = take(h1)
    w2 = new DenseMatrix(h1, h2, take(h1 * h2)); b2 = take(h2)
    w3 = new DenseMatrix(h2, outUnits, take(h2 * outUnits)); b3 = take(outUnits)
    require(off == p.length, s"param length mismatch: $off vs ${p.length}")
  }

  def copyModel: NeuralNet = {
    val m = new NeuralNet(dim, h1, h2, numClasses)
    m.setParams(params)
    m
  }
}

object NeuralNet {
  /** Seed of the first layer's initial weights; layer `k` uses `Seed + k - 1`. */
  private val Seed: Long = 44

  /** Forward activations for a batch. */
  private final case class Fwd(hh1: DenseMatrix, hh2: DenseMatrix, out: DenseMatrix)

  /** Deterministic Glorot-uniform initialization. */
  def glorot(fanIn: Int, fanOut: Int, seed: Long): DenseMatrix = {
    val rng = new scala.util.Random(seed)
    val limit = math.sqrt(6.0 / (fanIn + fanOut))
    new DenseMatrix(fanIn, fanOut,
      Array.fill(fanIn * fanOut)((rng.nextDouble() * 2 - 1) * limit))
  }

  /** The paper's architecture: 200- and 50-neuron hidden layers. */
  def paper(dim: Int, numClasses: Int): NeuralNet =
    new NeuralNet(dim, 200, 50, numClasses)
}
