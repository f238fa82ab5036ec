package repro.baselines

import repro.core.{ByteReader, ByteWriter, CorruptBatchException, SparseEncoder}
import repro.linalg.{DenseMatrix, EncodedMatrix, MatrixEncoder}

/** A matrix stored row by row as CSR stores it: for row `i`, positions
  * `rowPtr(i) until rowPtr(i + 1)` hold the column indexes `colIdx(k)` of
  * its non-zeros and `value(k)` gives their values. The kernels and
  * `decode` are written once here; CSR and CVI (CSR with value indexing)
  * differ only in where `value(k)` comes from, their bytes and `A.*c`.
  */
abstract class SparseRowMatrix(
    val numRows: Int,
    val numCols: Int,
    val colIdx: Array[Int],
    val rowPtr: Array[Int] // length numRows + 1
) extends EncodedMatrix {

  /** The non-zero value at position `k` of `colIdx`. */
  protected def value(k: Int): Double

  def timesVector(v: Array[Double]): Array[Double] = {
    require(v.length == numCols)
    val out = new Array[Double](numRows)
    var i = 0
    while (i < numRows) {
      var s = 0.0
      var k = rowPtr(i)
      while (k < rowPtr(i + 1)) { s += value(k) * v(colIdx(k)); k += 1 }
      out(i) = s
      i += 1
    }
    out
  }

  def vectorTimes(v: Array[Double]): Array[Double] = {
    require(v.length == numRows)
    val out = new Array[Double](numCols)
    var i = 0
    while (i < numRows) {
      val vi = v(i)
      if (vi != 0.0) {
        var k = rowPtr(i)
        while (k < rowPtr(i + 1)) { out(colIdx(k)) += vi * value(k); k += 1 }
      }
      i += 1
    }
    out
  }

  def timesMatrix(m: DenseMatrix): DenseMatrix = {
    require(m.rows == numCols)
    val p = m.cols
    val out = new Array[Double](numRows * p)
    var i = 0
    while (i < numRows) {
      var k = rowPtr(i)
      while (k < rowPtr(i + 1)) {
        val a = value(k); val mBase = colIdx(k) * p; val oBase = i * p
        var j = 0
        while (j < p) { out(oBase + j) += a * m.data(mBase + j); j += 1 }
        k += 1
      }
      i += 1
    }
    new DenseMatrix(numRows, p, out)
  }

  def leftTimes(m: DenseMatrix): DenseMatrix = {
    require(m.cols == numRows)
    val p = m.rows
    val out = new Array[Double](p * numCols)
    var i = 0
    while (i < numRows) {
      var k = rowPtr(i)
      while (k < rowPtr(i + 1)) {
        val a = value(k); val c = colIdx(k)
        var r = 0
        while (r < p) { out(r * numCols + c) += m.data(r * numRows + i) * a; r += 1 }
        k += 1
      }
      i += 1
    }
    new DenseMatrix(p, numCols, out)
  }

  def decode: DenseMatrix = {
    val out = DenseMatrix.zeros(numRows, numCols)
    var i = 0
    while (i < numRows) {
      var k = rowPtr(i)
      while (k < rowPtr(i + 1)) { out(i, colIdx(k)) = value(k); k += 1 }
      i += 1
    }
    out
  }
}

/** CSR (§5 "Compared Methods" #2): compressed sparse row — per row only
  * the non-zero values (float64) and their column indexes (int32).
  *
  * Layout: `int32 numRows | int32 numCols | rowPtr int32s | colIdx int32s
  * | values float64s`.
  */
final class CsrMatrix(
    numRows: Int,
    numCols: Int,
    val values: Array[Double],
    colIdx: Array[Int],
    rowPtr: Array[Int]
) extends SparseRowMatrix(numRows, numCols, colIdx, rowPtr) {

  protected def value(k: Int): Double = values(k)

  def sizeBytes: Long = 8L + 8L * values.length + 4L * colIdx.length + 4L * rowPtr.length
  def encoder: MatrixEncoder = CsrEncoder
  def toBytes: Array[Byte] =
    new ByteWriter(sizeBytes).int(numRows).int(numCols).ints(rowPtr).ints(colIdx).doubles(values).result

  def timesScalar(c: Double): CsrMatrix =
    new CsrMatrix(numRows, numCols, values.map(_ * c), colIdx, rowPtr)
}

object CsrEncoder extends MatrixEncoder {
  val name = "CSR"
  /** §3's sparse encoding ([[SparseEncoder]]) with its rows laid end to end. */
  def encode(batch: DenseMatrix): CsrMatrix = {
    val rows = SparseEncoder.encode(batch)
    val rowPtr = new Array[Int](rows.length + 1)
    var i = 0
    while (i < rows.length) { rowPtr(i + 1) = rowPtr(i) + rows(i).length; i += 1 }
    val colIdx = new Array[Int](rowPtr(rows.length))
    val values = new Array[Double](rowPtr(rows.length))
    i = 0
    while (i < rows.length) {
      System.arraycopy(rows(i).cols, 0, colIdx, rowPtr(i), rows(i).length)
      System.arraycopy(rows(i).vals, 0, values, rowPtr(i), rows(i).length)
      i += 1
    }
    new CsrMatrix(batch.rows, batch.cols, values, colIdx, rowPtr)
  }

  def fromBytes(bytes: Array[Byte]): CsrMatrix = {
    val r = new ByteReader(bytes)
    val (rows, cols) = r.shape()
    val (rowPtr, colIdx) = readIndex(r, rows, cols)
    val values = r.doubles(colIdx.length)
    r.end()
    new CsrMatrix(rows, cols, values, colIdx, rowPtr)
  }

  /** The `rowPtr` and `colIdx` of CSR's layout, which CVI shares. Each
    * row's columns must ascend strictly, as [[encode]] writes them: a
    * repeated column would be added twice by the kernels but kept once by
    * `decode`.
    */
  private[baselines] def readIndex(r: ByteReader, rows: Int, cols: Int): (Array[Int], Array[Int]) = {
    val rowPtr = r.ints(rows + 1L)
    ByteReader.checkOffsets(rowPtr, "rowPtr")
    val colIdx = r.ints(rowPtr(rows), cols - 1)
    var ascending = true
    var i = 0
    while (i < rows) {
      var k = rowPtr(i) + 1
      while (k < rowPtr(i + 1)) { ascending &= colIdx(k - 1) < colIdx(k); k += 1 }
      i += 1
    }
    CorruptBatchException.check(ascending, "colIdx: a row's columns do not ascend")
    (rowPtr, colIdx)
  }
}
