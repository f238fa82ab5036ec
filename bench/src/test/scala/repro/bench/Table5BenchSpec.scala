package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Regenerates Table 5 (dataset statistics) for the synthetic analogs and
  * prints paper-vs-measured rows (recorded in EXPERIMENTS.md).
  */
class Table5BenchSpec extends AnyFunSuite {

  lazy val rows: Seq[Table5.Row] = Table5.measureAll()

  test("Table 5: print dataset statistics (paper vs analogs)") {
    BenchUtil.report("Table 5 — dataset statistics (paper vs analogs)", Table5.render(rows))
    assert(rows.size == 6)
  }

  test("Table 5: every analog's measured sparsity tracks its paper regime") {
    rows.foreach { r =>
      val tol = math.max(0.08, r.spec.paperSparsity * 0.35)
      assert(math.abs(r.measuredSparsity - r.spec.sparsity) < tol,
        s"${r.spec.name}: measured ${r.measuredSparsity} vs spec ${r.spec.sparsity}")
    }
  }

  test("Table 5: sparsity ordering matches the paper (deep1b > census > kdd > imagenet > mnist > rcv1)") {
    val byName = rows.map(r => r.spec.name -> r.measuredSparsity).toMap
    assert(byName("deep1b-like") == 1.0)
    assert(byName("rcv1-like") < 0.01)
    assert(byName("census-like") > byName("mnist-like"))
    assert(byName("kdd99-like") > byName("mnist-like"))
  }

  test("Table 5: text sizes are positive and ordered by row*col volume") {
    val byName = rows.map(r => r.spec.name -> r.textBytesAtAnalogScale).toMap
    assert(byName.values.forall(_ > 0))
    // imagenet analog (6000 x 900) serializes bigger than census (30000 x 68)
    assert(byName("imagenet-like") > byName("kdd99-like"))
  }
}
