package repro.linalg

/** The operation surface every compression scheme in the paper exposes.
  *
  * Mirrors §4 of the paper: sparse-safe element-wise ops, right
  * multiplications (`A·v`, `A·M`), left multiplications (`v·A`, `M·A`) and
  * the sparse-unsafe path which requires a full decode. For TOC and the
  * light-weight matrix compression schemes (CSR/CVI/DVI/CLA) these execute
  * directly on the compressed form; for the general compression schemes
  * (Gzip/Snappy over DEN) every op pays the decompression cost — exactly
  * the behaviour the paper measures.
  */
trait CompressedMatrix {
  /** Number of matrix rows (mini-batch size). */
  def numRows: Int

  /** Number of matrix columns (feature count). */
  def numCols: Int

  /** Length in bytes of this encoding's byte format (see
    * [[EncodedMatrix.toBytes]]) — the quantity compression ratios are
    * computed from.
    */
  def sizeBytes: Long

  /** `A · v` where `v` has length `numCols`; result length `numRows`. */
  def timesVector(v: Array[Double]): Array[Double]

  /** `v · A` where `v` has length `numRows`; result length `numCols`. */
  def vectorTimes(v: Array[Double]): Array[Double]

  /** `A · M` where `M` is `numCols x p`; result `numRows x p`. */
  def timesMatrix(m: DenseMatrix): DenseMatrix

  /** `M · A` where `M` is `p x numRows`; result `p x numCols`. */
  def leftTimes(m: DenseMatrix): DenseMatrix

  /** Sparse-safe element-wise scalar multiply, staying compressed. */
  def timesScalar(c: Double): CompressedMatrix

  /** Full decode back to the dense representation (used by the
    * sparse-unsafe path, §4.5, and by the lossless round-trip tests).
    */
  def decode: DenseMatrix

  /** Sparse-unsafe element-wise scalar add (§4.5): decode then operate. */
  def plusScalar(c: Double): DenseMatrix = decode.plusScalar(c)
}

/** A compressed matrix in one of the [[Encodings]], which has exactly one
  * byte format: `toBytes` writes it, `encoder.fromBytes` reads it back,
  * and `sizeBytes` is its length. Every format starts with an int32
  * `numRows, numCols` header.
  */
trait EncodedMatrix extends CompressedMatrix {
  def encoder: MatrixEncoder
  def toBytes: Array[Byte]
}

/** Factory: turns a raw dense mini-batch into a compressed one.
  *
  * One implementation per compared method (Table 6's rows); the `name`
  * matches the paper's method label.
  */
trait MatrixEncoder {
  def name: String
  def encode(batch: DenseMatrix): EncodedMatrix

  /** Parses the bytes of [[EncodedMatrix.toBytes]]; throws
    * [[repro.core.CorruptBatchException]] on bytes that do not parse.
    */
  def fromBytes(bytes: Array[Byte]): EncodedMatrix
}
