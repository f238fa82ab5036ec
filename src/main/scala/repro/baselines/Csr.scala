package repro.baselines

import repro.core.{ByteReader, ByteWriter}
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
  def encode(batch: DenseMatrix): CsrMatrix = {
    val values = Array.newBuilder[Double]
    val colIdx = Array.newBuilder[Int]
    val rowPtr = new Array[Int](batch.rows + 1)
    var nnz = 0
    var i = 0
    while (i < batch.rows) {
      rowPtr(i) = nnz
      var j = 0
      while (j < batch.cols) {
        val x = batch(i, j)
        if (java.lang.Double.doubleToRawLongBits(x) != 0L) { values += x; colIdx += j; nnz += 1 }
        j += 1
      }
      i += 1
    }
    rowPtr(batch.rows) = nnz
    new CsrMatrix(batch.rows, batch.cols, values.result(), colIdx.result(), rowPtr)
  }

  def fromBytes(bytes: Array[Byte]): CsrMatrix = {
    val r = new ByteReader(bytes)
    val (rows, cols) = r.shape()
    val (rowPtr, colIdx) = readIndex(r, rows, cols)
    val values = r.doubles(colIdx.length)
    r.end()
    new CsrMatrix(rows, cols, values, colIdx, rowPtr)
  }

  /** The `rowPtr` and `colIdx` of CSR's layout, which CVI shares. */
  private[baselines] def readIndex(r: ByteReader, rows: Int, cols: Int): (Array[Int], Array[Int]) = {
    val rowPtr = r.ints(rows + 1L)
    ByteReader.checkOffsets(rowPtr, "rowPtr")
    (rowPtr, r.ints(rowPtr(rows), cols - 1))
  }
}
