package repro.mgd

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.DenEncoder
import repro.core.TocEncoder
import repro.data.Datasets
import repro.linalg.{DenseMatrix, Encodings, TestMatrices}

class LinearModelsSpec extends AnyFunSuite {

  /** A linearly separable toy batch. */
  def toyBatch(encoderName: String = "DEN"): MiniBatch = {
    val x = TestMatrices.fromRows(Seq(
      Seq(1.0, 2.0), Seq(2.0, 1.0), Seq(-1.0, -2.0), Seq(-2.0, -1.0),
      Seq(1.5, 1.5), Seq(-1.5, -1.5)))
    val y = Array(1.0, 1.0, 0.0, 0.0, 1.0, 0.0)
    MiniBatch(Encodings.byName(encoderName).encode(x), y)
  }

  test("MiniBatch validates row/label agreement") {
    val x = DenEncoder.encode(DenseMatrix.zeros(3, 2))
    intercept[IllegalArgumentException](MiniBatch(x, Array(1.0)))
  }

  test("LR loss decreases over gradient steps") {
    val b = toyBatch()
    val m = new LogisticRegression(2)
    val l0 = m.loss(b)
    (1 to 50).foreach(_ => m.step(b, 0.5))
    assert(m.loss(b) < l0 / 2)
  }

  test("LR gradient matches a finite-difference check") {
    val b = toyBatch()
    val m = new LogisticRegression(2)
    val w0 = m.params
    // Analytic step with lr=1 gives w1 = w0 − g, so g = w0 − w1.
    m.step(b, 1.0)
    val g = w0.zip(m.params).map { case (a0, a1) => a0 - a1 }
    val h = 1e-6
    for (j <- 0 until 2) {
      val mp = new LogisticRegression(2); val pp = w0.clone(); pp(j) += h; mp.setParams(pp)
      val mm = new LogisticRegression(2); val pm = w0.clone(); pm(j) -= h; mm.setParams(pm)
      val fd = (mp.loss(b) - mm.loss(b)) / (2 * h)
      assert(math.abs(fd - g(j)) < 1e-4, s"coord $j: fd=$fd analytic=${g(j)}")
    }
  }

  test("SVM loss decreases over gradient steps") {
    val b = toyBatch()
    val m = new Svm(2)
    val l0 = m.loss(b)
    (1 to 50).foreach(_ => m.step(b, 0.1))
    assert(m.loss(b) < l0)
  }

  test("SVM rows with margin >= 1 contribute no gradient") {
    val b = toyBatch()
    val m = new Svm(2)
    m.setParams(Array(10.0, 10.0)) // every margin far beyond 1
    val before = m.params
    m.step(b, 0.5)
    assert(m.params.toSeq == before.toSeq)
  }

  test("params/setParams round-trip for LR and SVM") {
    for (m <- Seq(new LogisticRegression(5), new Svm(5))) {
      val p = Array.tabulate(5)(_ * 0.3)
      m.setParams(p)
      assert(m.params.toSeq == p.toSeq)
    }
  }

  test("copyModel is independent of the original") {
    val m = new LogisticRegression(3)
    val c = m.copyModel
    m.setParams(Array(9.0, 9.0, 9.0))
    assert(c.params.toSeq != m.params.toSeq)
  }

  for (encName <- Encodings.all.map(_.name)) {
    test(s"LR gradient step over $encName equals the DEN step (same trajectory)") {
      val bDen = toyBatch("DEN")
      val bEnc = toyBatch(encName)
      val mDen = new LogisticRegression(2)
      val mEnc = new LogisticRegression(2)
      (1 to 10).foreach { _ => mDen.step(bDen, 0.3); mEnc.step(bEnc, 0.3) }
      mDen.params.zip(mEnc.params).foreach { case (d, e) =>
        assert(math.abs(d - e) < 1e-8, s"$encName diverged")
      }
    }
  }

  test("OneVsRest trains k independent binary models") {
    val x = TestMatrices.fromRows(Seq(
      Seq(2.0, 0.0), Seq(0.0, 2.0), Seq(-2.0, -2.0),
      Seq(2.2, 0.1), Seq(0.1, 2.2), Seq(-2.1, -1.9)))
    val y = Array(0.0, 1.0, 2.0, 0.0, 1.0, 2.0)
    val b = MiniBatch(DenEncoder.encode(x), y)
    val m = new OneVsRest(3, _ => new LogisticRegression(2))
    val l0 = m.loss(b)
    (1 to 80).foreach(_ => m.step(b, 0.5))
    assert(m.loss(b) < l0)
    assert(m.params.length == 6)
    val c = m.copyModel
    assert(c.params.toSeq == m.params.toSeq)
    c.setParams(Array.fill(6)(0.0))
    assert(m.params.exists(_ != 0.0))
  }

  test("OneVsRest.setParams rejects a vector of the wrong length") {
    val m = new OneVsRest(3, _ => new LogisticRegression(2))
    val before = m.params
    intercept[IllegalArgumentException](m.setParams(Array.fill(5)(1.0)))
    intercept[IllegalArgumentException](m.setParams(Array.fill(7)(1.0)))
    assert(m.params.toSeq == before.toSeq)
    m.setParams(Array.fill(6)(1.0))
    assert(m.params.toSeq == Seq.fill(6)(1.0))
  }

  test("LR, SVM and one-vs-rest LR after 10 steps on a TOC batch (pinned SHA-256 of raw bits)") {
    def sha(p: Array[Double]): String = {
      val buf = ByteBuffer.allocate(8 * p.length)
      p.foreach(d => buf.putLong(java.lang.Double.doubleToRawLongBits(d)))
      MessageDigest.getInstance("SHA-256").digest(buf.array).map("%02x".format(_)).mkString
    }
    val (cx, cy) = Datasets.slice(Datasets.census, 0, 250)
    val (mx, my) = Datasets.slice(Datasets.mnist, 0, 250)
    val census = MiniBatch(TocEncoder.encode(cx), cy)
    val mnist = MiniBatch(TocEncoder.encode(mx), my)
    // Model → SHA-256 of its parameters followed by its loss, taken before
    // LR and SVM shared the LinearModel base class.
    val pinned = Seq(
      ("LR", new LogisticRegression(cx.cols), census,
        "41008b0e7ff116b0f73f75644c19e0bc279e205c9163e829969a3267ace8ce6f"),
      ("SVM", new Svm(cx.cols), census,
        "598025f3678d16c4ecea4492bf1c6233ee64000dd6251406a7a55f0873886e9c"),
      ("OvR LR", new OneVsRest(10, _ => new LogisticRegression(mx.cols)), mnist,
        "58b519a084b9366c67b331c63b0d059c91a00f44802955ca3a60f1d2f65f6d22"))
    for ((label, m, b, want) <- pinned) {
      (1 to 10).foreach(_ => m.step(b, 0.1))
      assert(sha(m.params :+ m.loss(b)) == want, label)
    }
  }
}
