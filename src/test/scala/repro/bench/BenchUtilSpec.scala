package repro.bench

import org.scalatest.funsuite.AnyFunSuite

class BenchUtilSpec extends AnyFunSuite {

  test("timeSec returns the thunk's value and a non-negative duration") {
    val (v, s) = BenchUtil.timeSec { 40 + 2 }
    assert(v == 42 && s >= 0.0)
  }

  test("warmMedianSec warms f up untimed, then returns the median of n timed runs") {
    // Every 5 consecutive runs sleep 1, 2, 3, 40 and 60 ms in some order,
    // so the 5 timed runs' median is the 3 ms one, whichever run is first.
    val sleeps = Seq(1L, 40L, 2L, 60L, 3L)
    var runs = 0
    val median = BenchUtil.warmMedianSec(5) { Thread.sleep(sleeps(runs % 5)); runs += 1 }
    assert(runs > 5) // at least one warm-up run
    assert(median >= 0.003 && median < 0.040, s"median $median s")
  }

  test("renderTable aligns columns and includes a separator") {
    val t = BenchUtil.renderTable(Seq("a", "bbb"), Seq(Seq("xx", "y"), Seq("1", "22")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.forall(_.length == lines.head.length))
    assert(lines(1).forall("|- ".contains(_)))
  }

  test("fmtBytes picks sensible units") {
    assert(BenchUtil.fmtBytes(512) == "512 B")
    assert(BenchUtil.fmtBytes(2048) == "2.00 KB")
    assert(BenchUtil.fmtBytes(3L * 1024 * 1024) == "3.00 MB")
    assert(BenchUtil.fmtBytes(5L * 1024 * 1024 * 1024) == "5.00 GB")
  }

  test("fmtSec switches between ms and s") {
    assert(BenchUtil.fmtSec(0.0005) == "0.50 ms")
    assert(BenchUtil.fmtSec(2.5) == "2.5 s")
    assert(BenchUtil.fmtSec(250.0) == "250 s")
  }
}
