package repro.bench

import repro.SparkSpec

/** Regenerates Table 7 (Appendix D.2): end-to-end MGD runtimes on the
  * Census and Kdd99 analogs.
  */
class Table7BenchSpec extends SparkSpec {

  lazy val Seq(censusRes, kddRes) = EndToEnd.Table7.map(EndToEnd.run(_, Some(spark)))

  test("Table 7: print census-like end-to-end MGD runtimes") {
    BenchUtil.report("Table 7 — census-like", EndToEnd.render(censusRes))
    assert(censusRes.rows.nonEmpty)
  }

  test("Table 7: print kdd99-like end-to-end MGD runtimes") {
    BenchUtil.report("Table 7 — kdd99-like", EndToEnd.render(kddRes))
    assert(kddRes.rows.nonEmpty)
  }

  test("Table 7 fit pattern: TOC fits at large scale, LMC/DEN spill") {
    for (res <- Seq(censusRes, kddRes)) {
      val fits = res.rows.filter(r => EndToEnd.localMethods.contains(r.method))
        .map(r => r.method -> r.fitsLarge).toMap
      assert(fits("TOC"))
      for (m <- Seq("DEN", "CSR", "CVI", "DVI")) assert(!fits(m), s"$m must spill")
    }
  }

  test("Table 7 shape: TOC wins LR/SVM at large scale with substantial factors") {
    // Paper: up to 17.8x/18.3x vs state-of-the-art compression on Kdd200m.
    for (res <- Seq(censusRes, kddRes); kind <- Seq("LR", "SVM")) {
      for (other <- Seq("DEN", "CSR", "CVI", "DVI"))
        assert(EndToEnd.speedupLarge(res, other, kind) > 1.0,
          s"${res.config.spec.name} $kind vs $other")
    }
    assert(EndToEnd.speedupLarge(kddRes, "DEN", "LR") > 3.0,
      "kdd large-scale LR speedup vs DEN should be substantial")
  }

  test("Table 7 shape: NN speedups are smaller than LR speedups") {
    for (res <- Seq(censusRes, kddRes)) {
      assert(EndToEnd.speedupLarge(res, "DEN", "LR") >
             EndToEnd.speedupLarge(res, "DEN", "NN"))
    }
  }

  test("Table 7: kdd analog shows the strongest compression of all analogs (51x regime)") {
    val kddToc = kddRes.rows.find(_.method == "TOC").get.encodedBytes
    val kddDen = kddRes.rows.find(_.method == "DEN").get.encodedBytes
    assert(kddDen.toDouble / kddToc > 15.0,
      f"kdd TOC ratio ${kddDen.toDouble / kddToc}%.1f below the expected regime")
  }
}
