package repro.baselines

import repro.core.{BitPacking, ByteReader, ByteWriter, CorruptBatchException, ValueIndex}
import repro.linalg.{DenseMatrix, MatrixEncoder}

/** CVI / CSR-VI (§5 "Compared Methods" #3, [Kourtis et al.]): CSR whose
  * non-zero values are dictionary-coded (value indexing, §3.2) with
  * bit-packed value indexes. The [[SparseRowMatrix]] kernels resolve values
  * through the dictionary.
  *
  * Layout: `int32 numRows | int32 numCols | rowPtr int32s | colIdx int32s
  * | int32 dictLen | dict float64s | pack(valIdx)`.
  */
final class CviMatrix(
    numRows: Int,
    numCols: Int,
    val dict: Array[Double],
    val valIdx: Array[Int],  // per-nonzero dictionary index
    colIdx: Array[Int],
    rowPtr: Array[Int]
) extends SparseRowMatrix(numRows, numCols, colIdx, rowPtr) {

  def sizeBytes: Long = sizeBytes(BitPacking.width(valIdx))
  def encoder: MatrixEncoder = CviEncoder

  /** Serialize, finding `valIdx`'s width once. */
  def toBytes: Array[Byte] = {
    val w = BitPacking.width(valIdx)
    new ByteWriter(sizeBytes(w)).int(numRows).int(numCols).ints(rowPtr).ints(colIdx)
      .int(dict.length).doubles(dict).packed(valIdx, w).result
  }

  private def sizeBytes(valIdxWidth: Int): Long =
    12L + 8L * dict.length + BitPacking.packedSize(valIdx.length, valIdxWidth) +
      4L * colIdx.length + 4L * rowPtr.length

  protected def value(k: Int): Double = dict(valIdx(k))

  /** Sparse-safe scalar multiply: scale the dictionary only (why value
    * indexing makes `A.*c` fast — §5.2).
    */
  def timesScalar(c: Double): CviMatrix =
    new CviMatrix(numRows, numCols, dict.map(_ * c), valIdx, colIdx, rowPtr)
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
    val (rows, cols) = r.shape()
    val (rowPtr, colIdx) = CsrEncoder.readIndex(r, rows, cols)
    val dict = r.doubles(r.count())
    val valIdx = r.packed(dict.length - 1)
    r.end()
    CorruptBatchException.check(valIdx.length == colIdx.length, "CVI: valIdx and colIdx lengths differ")
    new CviMatrix(rows, cols, dict, valIdx, colIdx, rowPtr)
  }
}
