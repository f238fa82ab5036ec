package repro.baselines

import repro.core.{ByteReader, ByteWriter}
import repro.linalg.{DenseMatrix, EncodedMatrix, MatrixEncoder}

/** DEN (§5 "Compared Methods" #1): the uncompressed dense baseline —
  * row-major IEEE-754 doubles. All ops are the plain dense loops.
  *
  * Layout: `int32 numRows | int32 numCols | numRows * numCols float64`.
  */
final class DenMatrix(val m: DenseMatrix) extends EncodedMatrix {
  def numRows: Int = m.rows
  def numCols: Int = m.cols
  def sizeBytes: Long = m.denSizeBytes
  def encoder: MatrixEncoder = DenEncoder
  def toBytes: Array[Byte] = new ByteWriter(sizeBytes).int(numRows).int(numCols).doubles(m.data).result
  def timesVector(v: Array[Double]): Array[Double] = m.timesVector(v)
  def vectorTimes(v: Array[Double]): Array[Double] = m.vectorTimes(v)
  def timesMatrix(o: DenseMatrix): DenseMatrix = m.timesMatrix(o)
  def leftTimes(o: DenseMatrix): DenseMatrix = m.leftTimes(o)
  def timesScalar(c: Double): DenMatrix = new DenMatrix(m.timesScalar(c))
  def decode: DenseMatrix = m
}

object DenEncoder extends MatrixEncoder {
  val name = "DEN"
  def encode(batch: DenseMatrix): DenMatrix = new DenMatrix(batch)

  def fromBytes(bytes: Array[Byte]): DenMatrix = {
    val r = new ByteReader(bytes)
    val (rows, cols) = r.shape(cells = true)
    val data = r.doubles(rows.toLong * cols)
    r.end()
    new DenMatrix(new DenseMatrix(rows, cols, data))
  }
}
