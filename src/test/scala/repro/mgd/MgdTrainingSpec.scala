package repro.mgd

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Datasets
import repro.linalg.Encodings

/** End-to-end local MGD over the dataset analogs: every encoding yields
  * the same training trajectory, and losses decrease.
  */
class MgdTrainingSpec extends AnyFunSuite {

  lazy val (x, y) = Datasets.slice(Datasets.census, 0, 1000)

  test("makeBatches slices rows without loss, last batch short") {
    val batches = Mgd.makeBatches(x, y, 250, Encodings.byName("DEN"))
    assert(batches.map(_.size).sum == 1000)
    assert(batches.forall(_.size <= 250))
    val batches2 = Mgd.makeBatches(x, y, 300, Encodings.byName("DEN"))
    assert(batches2.map(_.size).toSeq == Seq(300, 300, 300, 100))
    // batch contents match the source rows
    assert(batches.head.x.decode.row(0).toSeq == x.row(0).toSeq)
    assert(batches.last.x.decode.row(249).toSeq == x.row(999).toSeq)
  }

  test("LR training on census analog: loss decreases per epoch") {
    val batches = Mgd.makeBatches(x, y, 250, Encodings.byName("TOC"))
    val res = Mgd.train(batches, new LogisticRegression(x.cols), lr = 0.1, epochs = 4)
    assert(res.lossPerEpoch.head > res.lossPerEpoch.last)
  }

  test("SVM training on census analog: loss decreases") {
    val batches = Mgd.makeBatches(x, y, 250, Encodings.byName("TOC"))
    val res = Mgd.train(batches, new Svm(x.cols), lr = 0.05, epochs = 4)
    assert(res.lossPerEpoch.head >= res.lossPerEpoch.last)
  }

  test("NN training on census analog: loss decreases") {
    val batches = Mgd.makeBatches(x, y, 250, Encodings.byName("TOC"))
    val res = Mgd.train(batches, new NeuralNet(x.cols, 16, 8, 2), lr = 0.3, epochs = 4)
    assert(res.lossPerEpoch.head > res.lossPerEpoch.last)
  }

  for (encName <- Encodings.all.map(_.name).filterNot(_ == "DEN")) {
    test(s"LR final parameters via $encName equal DEN's (compressed execution is exact)") {
      val bDen = Mgd.makeBatches(x, y, 250, Encodings.byName("DEN"))
      val bEnc = Mgd.makeBatches(x, y, 250, Encodings.byName(encName))
      val wDen = Mgd.train(bDen, new LogisticRegression(x.cols), 0.1, 2).model.params
      val wEnc = Mgd.train(bEnc, new LogisticRegression(x.cols), 0.1, 2).model.params
      wDen.zip(wEnc).foreach { case (d, e) => assert(math.abs(d - e) < 1e-6, encName) }
    }
  }

  test("multiclass (mnist analog) one-vs-rest LR decreases loss") {
    val (xm, ym) = Datasets.slice(Datasets.mnist, 0, 500)
    val batches = Mgd.makeBatches(xm, ym, 250, Encodings.byName("TOC"))
    val model = new OneVsRest(10, _ => new LogisticRegression(xm.cols))
    val res = Mgd.train(batches, model, lr = 0.1, epochs = 2)
    assert(res.lossPerEpoch.head > res.lossPerEpoch.last)
  }
}
