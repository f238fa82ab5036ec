package repro.mgd

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.DenEncoder
import repro.linalg.{DenseMatrix, Encodings}

class NeuralNetSpec extends AnyFunSuite {

  def binaryBatch(encoderName: String = "DEN"): MiniBatch = {
    val rng = new scala.util.Random(1)
    val rows = 30; val cols = 6
    val data = Array.fill(rows * cols)((rng.nextInt(5)) * 0.25)
    val x = new DenseMatrix(rows, cols, data)
    val y = Array.tabulate(rows)(i => if (x.row(i).sum > cols * 0.5) 1.0 else 0.0)
    MiniBatch(Encodings.byName(encoderName).encode(x), y)
  }

  def multiBatch(k: Int): MiniBatch = {
    val rng = new scala.util.Random(2)
    val rows = 40; val cols = 8
    val x = new DenseMatrix(rows, cols, Array.fill(rows * cols)(rng.nextInt(4) * 0.5))
    val y = Array.tabulate(rows)(i => (x.row(i).sum.toInt % k).toDouble)
    MiniBatch(DenEncoder.encode(x), y)
  }

  /** A multi-class net's softmax output for `b`, recomputed densely from
    * its public weights.
    */
  def softmaxOutput(m: NeuralNet, b: MiniBatch): DenseMatrix = {
    def affine(a: DenseMatrix, w: DenseMatrix, bias: Array[Double]): DenseMatrix = {
      val z = a.timesMatrix(w)
      for (i <- 0 until z.rows; j <- 0 until z.cols) z(i, j) = z(i, j) + bias(j)
      z
    }
    def sigmoid(z: DenseMatrix) = new DenseMatrix(z.rows, z.cols, z.data.map(MathOps.sigmoid))
    val z3 = affine(sigmoid(affine(sigmoid(affine(b.x.decode, m.w1, m.b1)), m.w2, m.b2)), m.w3, m.b3)
    val out = z3.data.grouped(z3.cols).flatMap { r =>
      val mx = r.max
      val e = r.map(z => math.exp(z - mx))
      e.map(_ / e.sum)
    }
    new DenseMatrix(z3.rows, z3.cols, out.toArray)
  }

  def layers(m: NeuralNet): Seq[Seq[Double]] =
    Seq(m.w1.data, m.b1, m.w2.data, m.b2, m.w3.data, m.b3).map(_.toSeq)

  test("binary net: loss decreases under training") {
    val b = binaryBatch()
    val m = new NeuralNet(6, 10, 5, numClasses = 2)
    val l0 = m.loss(b)
    (1 to 150).foreach(_ => m.step(b, 0.5))
    assert(m.loss(b) < l0)
  }

  test("multiclass net: softmax rows sum to one and loss decreases") {
    val b = multiBatch(3)
    val m = new NeuralNet(8, 10, 5, numClasses = 3)
    val l0 = m.loss(b)
    (1 to 150).foreach(_ => m.step(b, 0.5))
    assert(m.loss(b) < l0)
    val p = softmaxOutput(m, b)
    for (i <- 0 until p.rows) assert(math.abs(p.row(i).sum - 1.0) < 1e-12, s"row $i")
    val crossEntropy = (0 until p.rows).map(i => -math.log(p(i, b.y(i).toInt))).sum / p.rows
    assert(math.abs(m.loss(b) - crossEntropy) < 1e-9)
  }

  test("params/setParams round-trip preserves every layer") {
    val m = new NeuralNet(6, 10, 5, numClasses = 2)
    val p = m.params
    val m2 = new NeuralNet(6, 10, 5, numClasses = 2)
    val b = binaryBatch()
    m2.step(b, 0.5)
    layers(m2).zip(layers(m)).foreach { case (l2, l) => assert(l2 != l) }
    m2.setParams(p)
    assert(m2.params.toSeq == p.toSeq)
    assert(layers(m2) == layers(m))
    assert(math.abs(m.loss(b) - m2.loss(b)) < 1e-12)
  }

  test("setParams rejects wrong-length vectors") {
    val m = new NeuralNet(6, 10, 5, numClasses = 2)
    intercept[IllegalArgumentException](m.setParams(new Array[Double](3)))
  }

  test("paper architecture uses 200/50 hidden layers; output units follow class count") {
    val bin = NeuralNet.paper(100, 2)
    assert(bin.h1 == 200 && bin.h2 == 50 && bin.outUnits == 1)
    assert(NeuralNet.paper(100, 10).outUnits == 10)
  }

  test("full-batch gradient: finite differences validate backprop through all layers") {
    val b = binaryBatch()
    val m = new NeuralNet(6, 4, 3, numClasses = 2)
    val w0 = m.params
    m.step(b, 1.0)
    val g = w0.zip(m.params).map { case (a0, a1) => a0 - a1 }
    val rng = new scala.util.Random(3)
    val h = 1e-5
    // spot-check 20 random coordinates across the parameter vector
    for (_ <- 1 to 20) {
      val j = rng.nextInt(w0.length)
      val mp = m.copyModel; val pp = w0.clone(); pp(j) += h; mp.setParams(pp)
      val mm = m.copyModel; val pm = w0.clone(); pm(j) -= h; mm.setParams(pm)
      val fd = (mp.loss(b) - mm.loss(b)) / (2 * h)
      assert(math.abs(fd - g(j)) < 1e-4, s"coord $j: fd=$fd analytic=${g(j)}")
    }
  }

  for (encName <- Seq("TOC", "CSR", "CVI", "DVI", "CLA", "Snappy", "Gzip")) {
    test(s"NN step over $encName matches the DEN step") {
      val bDen = binaryBatch("DEN")
      val bEnc = binaryBatch(encName)
      val mDen = new NeuralNet(6, 8, 4, numClasses = 2)
      val mEnc = new NeuralNet(6, 8, 4, numClasses = 2)
      (1 to 5).foreach { _ => mDen.step(bDen, 0.3); mEnc.step(bEnc, 0.3) }
      mDen.params.zip(mEnc.params).foreach { case (d, e) =>
        assert(math.abs(d - e) < 1e-8, s"$encName diverged")
      }
    }
  }
}
