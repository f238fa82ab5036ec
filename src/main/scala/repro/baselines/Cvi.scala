package repro.baselines

import repro.core.{BitPacking, ByteReader, ByteWriter, CorruptBatchException, ValueIndex}
import repro.linalg.{DenseMatrix, EncodedMatrix, MatrixEncoder}

/** CVI / CSR-VI (§5 "Compared Methods" #3, [Kourtis et al.]): CSR whose
  * non-zero values are dictionary-coded (value indexing, §3.2) with
  * bit-packed value indexes. Ops resolve values through the dictionary.
  *
  * Layout: `int32 numRows | int32 numCols | rowPtr int32s | colIdx int32s
  * | int32 dictLen | dict float64s | pack(valIdx)`.
  */
final class CviMatrix(
    val numRows: Int,
    val numCols: Int,
    val dict: Array[Double],
    val valIdx: Array[Int],  // per-nonzero dictionary index
    val colIdx: Array[Int],
    val rowPtr: Array[Int]
) extends EncodedMatrix {

  def sizeBytes: Long =
    12L + 8L * dict.length + BitPacking.packedSize(valIdx) +
      4L * colIdx.length + 4L * rowPtr.length
  def encoder: MatrixEncoder = CviEncoder
  def toBytes: Array[Byte] =
    new ByteWriter(sizeBytes).int(numRows).int(numCols).ints(rowPtr).ints(colIdx)
      .int(dict.length).doubles(dict).packed(valIdx).result

  @inline private def value(k: Int): Double = dict(valIdx(k))

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

  /** Sparse-safe scalar multiply: scale the dictionary only (why value
    * indexing makes `A.*c` fast — §5.2).
    */
  def timesScalar(c: Double): CviMatrix =
    new CviMatrix(numRows, numCols, dict.map(_ * c), valIdx, colIdx, rowPtr)

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

object CviEncoder extends MatrixEncoder {
  val name = "CVI"
  def encode(batch: DenseMatrix): CviMatrix = {
    val csr = CsrEncoder.encode(batch)
    val (dict, valIdx) = ValueIndex(csr.values)
    new CviMatrix(csr.numRows, csr.numCols, dict, valIdx, csr.colIdx, csr.rowPtr)
  }

  def fromBytes(bytes: Array[Byte]): CviMatrix = {
    val r = new ByteReader(bytes)
    val rows = r.count(); val cols = r.count()
    val (rowPtr, colIdx) = CsrEncoder.readIndex(r, rows, cols)
    val dict = r.doubles(r.count())
    val valIdx = r.packed(dict.length - 1)
    r.end()
    CorruptBatchException.check(valIdx.length == colIdx.length, "CVI: valIdx and colIdx lengths differ")
    new CviMatrix(rows, cols, dict, valIdx, colIdx, rowPtr)
  }
}
