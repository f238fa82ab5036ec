package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Encodings

class DatasetsSpec extends AnyFunSuite {

  test("registry: six analogs, one per paper dataset") {
    assert(Datasets.all.map(_.paperName).toSet ==
      Set("US Census", "ImageNet", "Mnist8m", "Kdd99", "Rcv1", "Deep1Billion"))
  }

  test("generation is deterministic: same (spec, rowIndex) → same row") {
    val ctx1 = new Datasets.GenContext(Datasets.census)
    val ctx2 = new Datasets.GenContext(Datasets.census)
    for (i <- Seq(0L, 17L, 9999L)) {
      assert(Datasets.row(ctx1, i).toSeq == Datasets.row(ctx2, i).toSeq)
      val x = Datasets.row(ctx1, i)
      assert(Datasets.label(ctx1, i, x) == Datasets.label(ctx2, i, x))
    }
  }

  test("slice(from, count) matches slice(0, n) on the overlap") {
    val (full, yFull) = Datasets.slice(Datasets.kdd99, 0, 50)
    val (part, yPart) = Datasets.slice(Datasets.kdd99, 20, 10)
    for (i <- 0 until 10) {
      assert(part.row(i).toSeq == full.row(20 + i).toSeq)
      assert(yPart(i) == yFull(20 + i))
    }
  }

  for (spec <- Datasets.all) {
    test(s"${spec.name}: measured sparsity tracks the paper regime (${spec.paperSparsity})") {
      val (x, _) = Datasets.slice(spec, 0, 400)
      val tol = math.max(0.08, spec.paperSparsity * 0.35)
      assert(math.abs(x.sparsity - spec.sparsity) < tol,
        s"measured ${x.sparsity}, spec ${spec.sparsity}")
    }

    test(s"${spec.name}: labels lie in [0, numClasses)") {
      val (_, y) = Datasets.slice(spec, 0, 300)
      assert(y.forall(v => v >= 0 && v < math.max(2, spec.numClasses) && v == math.floor(v)))
      // both classes / several classes actually occur
      assert(y.distinct.length >= 2, s"degenerate labels: ${y.distinct.toSeq}")
    }
  }

  test("census/kdd analogs have strong cross-row redundancy (TOC regime)") {
    for (spec <- Seq(Datasets.census, Datasets.kdd99)) {
      val (x, _) = Datasets.slice(spec, 0, 250)
      val ratio = x.denSizeBytes.toDouble / Encodings.byName("TOC").encode(x).sizeBytes
      assert(ratio > 10, s"${spec.name}: TOC ratio $ratio too low for the analog's regime")
    }
  }

  test("deep1b analog is incompressible for every scheme") {
    val (x, _) = Datasets.slice(Datasets.deep1b, 0, 250)
    assert(x.sparsity == 1.0)
    for (e <- Encodings.all) {
      val ratio = x.denSizeBytes.toDouble / e.encode(x).sizeBytes
      assert(ratio < 1.6, s"${e.name} ratio $ratio on deep1b-like")
    }
  }

  test("rcv1 analog: CSR is the natural winner (extreme sparsity)") {
    val (x, _) = Datasets.slice(Datasets.rcv1, 0, 250)
    val csr = Encodings.byName("CSR").encode(x).sizeBytes
    val den = Encodings.byName("DEN").encode(x).sizeBytes
    assert(csr.toDouble / den < 0.02)
  }

  test("textBytes is positive and roughly proportional to columns") {
    val (x1, y1) = Datasets.slice(Datasets.census, 0, 100)
    val (x2, y2) = Datasets.slice(Datasets.imagenet, 0, 100)
    val t1 = Datasets.textBytes(x1, y1)
    val t2 = Datasets.textBytes(x2, y2)
    assert(t1 > 0 && t2 > t1) // 900 cols ≫ 68 cols
  }
}
