package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CorruptBatchException
import repro.linalg.{DenseMatrix, TestMatrices}

/** Per-scheme structural checks beyond the shared conformance suite. */
class SchemeSpecificSpec extends AnyFunSuite {

  test("CSR stores exactly the non-zeros with correct row pointers") {
    val a = TestMatrices.fromRows(Seq(
      Seq(0.0, 2.0, 0.0), Seq(1.0, 0.0, 3.0), Seq(0.0, 0.0, 0.0)))
    val c = CsrEncoder.encode(a)
    assert(c.values.toSeq == Seq(2.0, 1.0, 3.0))
    assert(c.colIdx.toSeq == Seq(1, 0, 2))
    assert(c.rowPtr.toSeq == Seq(0, 1, 3, 3))
  }

  test("CSR and CVI reject a row whose columns repeat or descend") {
    // One row of a 1 x 2 matrix; [0, 0] would be added twice by A·v but kept once by decode.
    for (cols <- Seq(Array(0, 0), Array(1, 0))) withClue(cols.mkString("[", ", ", "]: ")) {
      val csr = new CsrMatrix(1, 2, Array(1.0, 2.0), cols, Array(0, 2))
      intercept[CorruptBatchException](CsrEncoder.fromBytes(csr.toBytes))
      val cvi = new CviMatrix(1, 2, Array(1.0, 2.0), Array(0, 1), cols, Array(0, 2))
      intercept[CorruptBatchException](CviEncoder.fromBytes(cvi.toBytes))
    }
    val ascending = new CsrMatrix(1, 2, Array(1.0, 2.0), Array(0, 1), Array(0, 2))
    assert(CsrEncoder.fromBytes(ascending.toBytes).decode.data.toSeq == Seq(1.0, 2.0))
  }

  test("a CSR buffer with a column equal to numCols throws CorruptBatchException") {
    // One row of a 1 x 2 matrix; column 2 is outside it.
    def bytes(lastCol: Int): Array[Byte] = new CsrMatrix(1, 2, Array(1.0, 2.0), Array(0, lastCol), Array(0, 2)).toBytes
    assert(CsrEncoder.fromBytes(bytes(1)).decode.data.toSeq == Seq(1.0, 2.0))
    intercept[CorruptBatchException](CsrEncoder.fromBytes(bytes(2)))
  }

  test("CVI dictionary holds distinct non-zero values only") {
    val a = TestMatrices.fromRows(Seq(Seq(0.5, 0.0, 0.5), Seq(0.25, 0.5, 0.0)))
    val c = CviEncoder.encode(a)
    assert(c.dict.toSeq == Seq(0.5, 0.25))
    assert(c.valIdx.toSeq == Seq(0, 0, 1, 0))
  }

  test("CVI beats CSR in size when values repeat heavily") {
    val rng = new scala.util.Random(3)
    val a = new DenseMatrix(250, 40, Array.fill(250 * 40)(
      if (rng.nextDouble() < 0.5) (rng.nextInt(3) + 1) * 0.5 else 0.0))
    assert(CviEncoder.encode(a).sizeBytes < CsrEncoder.encode(a).sizeBytes)
  }

  test("DVI dictionary includes zero for sparse data") {
    val a = TestMatrices.fromRows(Seq(Seq(0.0, 1.0), Seq(1.0, 0.0)))
    val d = DviEncoder.encode(a)
    assert(d.dict.toSet == Set(0.0, 1.0))
    assert(d.cells.length == 4)
  }

  test("DVI wins over DEN on few-distinct-value dense data, loses on unique values") {
    val few = new DenseMatrix(100, 20, Array.tabulate(2000)(i => (i % 4).toDouble))
    assert(DviEncoder.encode(few).sizeBytes < few.denSizeBytes)
    val unique = DenseMatrix.rand(100, 20, seed = 4)
    assert(DviEncoder.encode(unique).sizeBytes > unique.denSizeBytes) // dictionary overhead
  }

  test("CLA picks DDC groups for low-cardinality columns and UC for unique columns") {
    val rng = new scala.util.Random(5)
    val rows = 100
    val data = Array.tabulate(rows * 2) { k =>
      if (k % 2 == 0) (k / 2 % 3).toDouble    // col 0: 3 distinct values
      else rng.nextDouble()                   // col 1: all unique
    }
    val c = ClaEncoder.encode(new DenseMatrix(rows, 2, data))
    assert(c.groups(0).isInstanceOf[DdcGroup])
    assert(c.groups(1).isInstanceOf[UcGroup])
  }

  test("CLA explicit dictionary hurts small batches more than large ones (§7)") {
    def ratioAt(rows: Int): Double = {
      val data = Array.tabulate(rows * 10)(k => ((k * 31) % 40).toDouble)
      val a = new DenseMatrix(rows, 10, data)
      a.denSizeBytes.toDouble / ClaEncoder.encode(a).sizeBytes
    }
    assert(ratioAt(1000) > ratioAt(50)) // amortization improves with batch size
  }

  test("Gzip compresses repetitive doubles; matrices survive the round-trip") {
    val a = new DenseMatrix(50, 20, Array.fill(1000)(1.5))
    val g = GzipEncoder.encode(a)
    assert(g.sizeBytes < a.denSizeBytes / 5)
    assert(g.decode == a)
  }

  test("Snappy compresses repetitive doubles; matrices survive the round-trip") {
    val a = new DenseMatrix(50, 20, Array.fill(1000)(1.5))
    val s = SnappyEncoder.encode(a)
    assert(s.sizeBytes < a.denSizeBytes / 5)
    assert(s.decode == a)
  }

  test("Gzip ratio beats Snappy on typical quantized data (GC ordering)") {
    val rng = new scala.util.Random(6)
    val a = new DenseMatrix(250, 68, Array.fill(250 * 68)(
      if (rng.nextDouble() < 0.43) (rng.nextInt(8) + 1) * 0.125 else 0.0))
    assert(GzipEncoder.encode(a).sizeBytes < SnappyEncoder.encode(a).sizeBytes)
  }

  test("general schemes stay compressed after A.*c") {
    val a = DenseMatrix.rand(20, 10, seed = 7)
    val g = GzipEncoder.encode(a).timesScalar(3.0)
    assert(g.encoder eq GzipEncoder)
    assert(g.decode == a.timesScalar(3.0))
    val s = SnappyEncoder.encode(a).timesScalar(3.0)
    assert(s.encoder eq SnappyEncoder)
    assert(s.decode == a.timesScalar(3.0))
  }
}
