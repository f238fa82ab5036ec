package repro.baselines

import repro.core.{BitPacking, ByteReader, ByteWriter, CorruptBatchException, ValueIndex}
import repro.linalg.{DenseMatrix, EncodedMatrix, MatrixEncoder}

/** DVI (§5 "Compared Methods" #4): the dense layout with value indexing —
  * every cell (zeros included) is a bit-packed dictionary index.
  *
  * Layout: `int32 numRows | int32 numCols | int32 dictLen | dict float64s
  * | pack(cells)`.
  */
final class DviMatrix(
    val numRows: Int,
    val numCols: Int,
    val dict: Array[Double],
    val cells: Array[Int]  // row-major dictionary index per cell
) extends EncodedMatrix {

  def sizeBytes: Long = sizeBytes(BitPacking.width(cells))
  def encoder: MatrixEncoder = DviEncoder

  /** Serialize, finding `cells`' width once. */
  def toBytes: Array[Byte] = {
    val w = BitPacking.width(cells)
    new ByteWriter(sizeBytes(w)).int(numRows).int(numCols).int(dict.length).doubles(dict)
      .packed(cells, w).result
  }

  private def sizeBytes(cellsWidth: Int): Long =
    12L + 8L * dict.length + BitPacking.packedSize(cells.length, cellsWidth)

  @inline private def value(i: Int, j: Int): Double = dict(cells(i * numCols + j))

  def timesVector(v: Array[Double]): Array[Double] = {
    require(v.length == numCols)
    val out = new Array[Double](numRows)
    var i = 0
    while (i < numRows) {
      var s = 0.0; var j = 0; val base = i * numCols
      while (j < numCols) { s += dict(cells(base + j)) * v(j); j += 1 }
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
        var j = 0; val base = i * numCols
        while (j < numCols) { out(j) += vi * dict(cells(base + j)); j += 1 }
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
      var k = 0
      while (k < numCols) {
        val a = value(i, k)
        if (a != 0.0) {
          val mBase = k * p; val oBase = i * p
          var j = 0
          while (j < p) { out(oBase + j) += a * m.data(mBase + j); j += 1 }
        }
        k += 1
      }
      i += 1
    }
    new DenseMatrix(numRows, p, out)
  }

  def leftTimes(m: DenseMatrix): DenseMatrix = {
    require(m.cols == numRows)
    m.timesMatrix(decode)
  }

  /** Sparse-safe scalar multiply: scale the dictionary only. */
  def timesScalar(c: Double): DviMatrix =
    new DviMatrix(numRows, numCols, dict.map(_ * c), cells)

  def decode: DenseMatrix = {
    val out = new Array[Double](numRows * numCols)
    var k = 0
    while (k < out.length) { out(k) = dict(cells(k)); k += 1 }
    new DenseMatrix(numRows, numCols, out)
  }
}

object DviEncoder extends MatrixEncoder {
  val name = "DVI"
  def encode(batch: DenseMatrix): DviMatrix = {
    val (dict, cells) = ValueIndex(batch.data)
    new DviMatrix(batch.rows, batch.cols, dict, cells)
  }

  def fromBytes(bytes: Array[Byte]): DviMatrix = {
    val r = new ByteReader(bytes)
    val (rows, cols) = r.shape(cells = true)
    val dict = r.doubles(r.count())
    val cells = r.packed(dict.length - 1)
    r.end()
    CorruptBatchException.check(cells.length == rows.toLong * cols, "DVI: cell count is not rows x cols")
    new DviMatrix(rows, cols, dict, cells)
  }
}
