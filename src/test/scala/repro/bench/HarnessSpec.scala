package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{DatasetSpec, Datasets}
import repro.io.StorageSim

/** Unit coverage for the table harness logic itself (the bench project
  * exercises it at full scale).
  */
class HarnessSpec extends AnyFunSuite {

  test("memoryBudget lies strictly between TOC's and the smallest LMC size") {
    val sizes = Map("TOC" -> 100L, "DEN" -> 10000L, "CSR" -> 5000L,
                    "CVI" -> 2000L, "DVI" -> 3000L)
    val b = EndToEnd.memoryBudget(sizes)
    assert(b > 100L && b < 2000L)
  }

  test("EndToEnd on a tiny config produces all method rows with the fit pattern") {
    val res = EndToEnd.run(EndToEnd.Config(Datasets.kdd99, smallRows = 600), spark = None)
    assert(res.rows.map(_.method) == EndToEnd.localMethods)
    val byName = res.rows.map(r => r.method -> r).toMap
    assert(byName("TOC").fitsLarge)
    assert(!byName("CVI").fitsLarge)
    // large totals include the modeled IO for spilling methods
    val sim = StorageSim(res.memoryBudgetBytes, EndToEnd.DiskMbPerSec * 1024 * 1024)
    val cvi = byName("CVI")
    val expectedIo = sim.totalIoSeconds(cvi.encodedBytes * EndToEnd.LargeScale, EndToEnd.Epochs)
    assert(math.abs(cvi.cells("LR").largeTotalSec - (cvi.cells("LR").computeSec * EndToEnd.LargeScale + expectedIo)) < 1e-6)
  }

  test("speedupLarge is the ratio of large totals") {
    val res = EndToEnd.run(EndToEnd.Config(Datasets.kdd99, smallRows = 600), spark = None)
    val toc = res.rows.find(_.method == "TOC").get
    val den = res.rows.find(_.method == "DEN").get
    val s = EndToEnd.speedupLarge(res, "DEN", "LR")
    assert(math.abs(s - den.cells("LR").largeTotalSec / toc.cells("LR").largeTotalSec) < 1e-9)
  }

  test("Tables 6 and 7 name their analogs at Table 5's rows, and render kinds small then large") {
    def at(spec: DatasetSpec) = EndToEnd.Config(spec, Table5.analogRows(spec.name).toInt)
    assert(EndToEnd.Table6 == Seq(at(Datasets.imagenet), at(Datasets.mnist)))
    assert(EndToEnd.Table7 == Seq(at(Datasets.census), at(Datasets.kdd99)))
    val row = EndToEnd.MethodRow("TOC", 1L, fitsLarge = true,
      EndToEnd.Kinds.map(_ -> EndToEnd.Cell(1.0, 1.0, 1.0)).toMap)
    val header = EndToEnd.render(EndToEnd.Result(EndToEnd.Config(Datasets.kdd99, 1), 1L, Seq(row)))
      .linesIterator.drop(1).next().split('|').map(_.trim).filter(_.nonEmpty).toSeq
    assert(header == Seq("method", "enc size", "fits@large",
      "NN small", "LR small", "SVM small", "NN large", "LR large", "SVM large"))
  }

  test("Table5.measure extrapolates text size from the sampled rows") {
    val r = Table5.measure(Datasets.kdd99)
    assert(r.analogRows == Table5.analogRows("kdd99-like"))
    assert(r.textBytesAtAnalogScale > 0)
  }

  test("CompressionRatios.sweep covers every registered method") {
    val rows = CompressionRatios.sweep(Datasets.kdd99, 100)
    assert(rows.map(_.method) == repro.linalg.Encodings.all.map(_.name))
    assert(rows.forall(_.ratio > 0))
  }
}
