package repro.bench

import repro.SparkSpec

/** Regenerates Table 6: end-to-end MGD runtimes on the ImageNet and Mnist
  * analogs — in-memory ("1m"-style) and simulated out-of-core
  * ("25m"-style) configurations; local rows + Spark in-system rows (the
  * Bismarck-integration analog).
  */
class Table6BenchSpec extends SparkSpec {

  lazy val Seq(imagenetRes, mnistRes) = EndToEnd.Table6.map(EndToEnd.run(_, Some(spark)))

  test("Table 6: print imagenet-like end-to-end MGD runtimes") {
    BenchUtil.report("Table 6 — imagenet-like", EndToEnd.render(imagenetRes))
    assert(imagenetRes.rows.map(_.method).take(7) == EndToEnd.localMethods)
  }

  test("Table 6: print mnist-like end-to-end MGD runtimes") {
    BenchUtil.report("Table 6 — mnist-like", EndToEnd.render(mnistRes))
    assert(mnistRes.rows.nonEmpty)
  }

  test("Table 6 fit pattern: at large scale only TOC fits among the LMC/DEN rows") {
    for (res <- Seq(imagenetRes, mnistRes)) {
      val fits = res.rows.filter(r => EndToEnd.localMethods.contains(r.method))
        .map(r => r.method -> r.fitsLarge).toMap
      assert(fits("TOC"), s"${res.config.spec.name}: TOC must fit")
      for (m <- Seq("DEN", "CSR", "CVI", "DVI"))
        assert(!fits(m), s"${res.config.spec.name}: $m must spill")
    }
  }

  test("Table 6 shape: TOC beats DEN/CSR/CVI/DVI at large scale for LR and SVM") {
    // Paper Table 6 (25m rows): TOC ahead of every spilling method; its
    // margin over CVI shrinks on Mnist (10 one-vs-rest models multiply
    // the op count, §5.3) but stays > 1 (92/52 = 1.8x).
    for (res <- Seq(imagenetRes, mnistRes); kind <- Seq("LR", "SVM");
         other <- Seq("DEN", "CSR", "CVI", "DVI")) {
      val s = EndToEnd.speedupLarge(res, other, kind)
      assert(s > 1.0, s"${res.config.spec.name} $kind vs $other: speedup $s")
    }
  }

  test("Table 6 shape: TOC beats DEN at large scale for NN") {
    for (res <- Seq(imagenetRes, mnistRes)) {
      val s = EndToEnd.speedupLarge(res, "DEN", "NN")
      assert(s > 1.0, s"${res.config.spec.name} NN vs DEN: speedup $s")
    }
  }

  test("Table 6 shape: LR speedups exceed NN speedups (the paper's §5.3 observation)") {
    for (res <- Seq(imagenetRes, mnistRes)) {
      val lr = EndToEnd.speedupLarge(res, "DEN", "LR")
      val nn = EndToEnd.speedupLarge(res, "DEN", "NN")
      assert(lr > nn, s"${res.config.spec.name}: LR speedup $lr should exceed NN $nn")
    }
  }

  test("Table 6 shape: imagenet LR/SVM speedups exceed mnist's (10 models on mnist)") {
    val im = EndToEnd.speedupLarge(imagenetRes, "CVI", "LR")
    val mn = EndToEnd.speedupLarge(mnistRes, "CVI", "LR")
    assert(im > mn, s"imagenet $im vs mnist $mn")
  }

  test("Table 6: Spark (in-system) TOC row is within a modest factor of local TOC") {
    // BismarckTOC carried <10% overhead in the paper; Spark's job scheduling
    // costs more at our tiny scale, so only require the same ballpark.
    for (res <- Seq(imagenetRes, mnistRes)) {
      val local = res.rows.find(_.method == "TOC").get
      val sparkRow = res.rows.find(_.method == "SparkTOC").get
      assert(sparkRow.cells("LR").computeSec < local.cells("LR").computeSec * 50 + 60,
        s"${res.config.spec.name}: SparkTOC unreasonably slow")
    }
  }

  test("Table 6: Spark rows preserve the TOC-vs-CSR/DEN ordering at large scale") {
    for (res <- Seq(imagenetRes, mnistRes); kind <- Seq("LR", "SVM")) {
      def cell(m: String) = res.rows.find(_.method == m).get.cells(kind)
      assert(cell("SparkTOC").largeTotalSec < cell("SparkDEN").largeTotalSec)
      assert(cell("SparkTOC").largeTotalSec < cell("SparkCSR").largeTotalSec)
    }
  }
}
