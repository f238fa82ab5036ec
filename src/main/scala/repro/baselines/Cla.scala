package repro.baselines

import repro.core.{BitPacking, ByteReader, ByteWriter, CorruptBatchException, ValueIndex}
import repro.linalg.{DenseMatrix, EncodedMatrix, MatrixEncoder}

/** CLA (§5 "Compared Methods" #5, [Elgohary et al., VLDB'16]) — our
  * reimplementation of compressed linear algebra's column-group scheme.
  *
  * Each column becomes either a DDC group (explicit value dictionary +
  * bit-packed per-row code — SystemML's dense dictionary coding) when its
  * distinct-value count is small enough to pay off, or an uncompressed
  * (UC) column of raw doubles. This captures the two properties the paper
  * leans on when comparing against CLA on mini-batches: direct compressed
  * execution, and an explicit per-batch dictionary whose cost is poorly
  * amortized on small batches (§7 "Compressed Linear Algebra").
  *
  * Substitution note (DESIGN.md §4): SystemML additionally co-codes
  * correlated columns and has OLE/RLE group types; single-column DDC+UC
  * preserves the size and runtime *shape* on mini-batches without the
  * planner machinery.
  *
  * Layout: `int32 numRows | int32 numCols`, then per column in order an
  * int32 DDC dictionary length, 0 for a UC column, followed by the UC
  * column's `numRows` float64s or the DDC dictionary's float64s and
  * `pack(codes)`.
  */
sealed trait ClaGroup {
  def col: Int
  def sizeBytes: Long
  def valueAt(row: Int): Double
  def scaled(c: Double): ClaGroup
  def writeTo(w: ByteWriter): Unit
}

/** Dense dictionary-coded column. `codes`' width is found once per group,
  * for both its size and its bytes.
  */
final case class DdcGroup(col: Int, dict: Array[Double], codes: Array[Int]) extends ClaGroup {
  private lazy val codesWidth = BitPacking.width(codes)
  def sizeBytes: Long = 4L + 8L * dict.length + BitPacking.packedSize(codes.length, codesWidth)
  @inline def valueAt(row: Int): Double = dict(codes(row))
  def scaled(c: Double): DdcGroup = DdcGroup(col, dict.map(_ * c), codes)
  def writeTo(w: ByteWriter): Unit = w.int(dict.length).doubles(dict).packed(codes, codesWidth)
}

/** Uncompressed column fallback. */
final case class UcGroup(col: Int, values: Array[Double]) extends ClaGroup {
  def sizeBytes: Long = 4L + 8L * values.length
  @inline def valueAt(row: Int): Double = values(row)
  def scaled(c: Double): UcGroup = UcGroup(col, values.map(_ * c))
  def writeTo(w: ByteWriter): Unit = w.int(0).doubles(values)
}

/** `groups(j)` is column `j`'s group. */
final class ClaMatrix(val numRows: Int, val numCols: Int, val groups: Array[ClaGroup])
    extends EncodedMatrix {

  def sizeBytes: Long = 8L + groups.map(_.sizeBytes).sum
  def encoder: MatrixEncoder = ClaEncoder
  def toBytes: Array[Byte] = {
    val w = new ByteWriter(sizeBytes).int(numRows).int(numCols)
    groups.foreach(_.writeTo(w))
    w.result
  }

  def timesVector(v: Array[Double]): Array[Double] = {
    require(v.length == numCols)
    val out = new Array[Double](numRows)
    groups.foreach {
      case DdcGroup(col, dict, codes) =>
        // CLA's pre-aggregation: scale the dictionary once, then scan codes.
        val scaled = dict.map(_ * v(col))
        var i = 0
        while (i < numRows) { out(i) += scaled(codes(i)); i += 1 }
      case UcGroup(col, values) =>
        val vj = v(col)
        if (vj != 0.0) {
          var i = 0
          while (i < numRows) { out(i) += values(i) * vj; i += 1 }
        }
    }
    out
  }

  def vectorTimes(v: Array[Double]): Array[Double] = {
    require(v.length == numRows)
    val out = new Array[Double](numCols)
    groups.foreach {
      case DdcGroup(col, dict, codes) =>
        // Aggregate v per code, then one pass over the dictionary.
        val agg = new Array[Double](dict.length)
        var i = 0
        while (i < numRows) { agg(codes(i)) += v(i); i += 1 }
        var d = 0
        var s = 0.0
        while (d < dict.length) { s += dict(d) * agg(d); d += 1 }
        out(col) = s
      case UcGroup(col, values) =>
        var s = 0.0
        var i = 0
        while (i < numRows) { s += values(i) * v(i); i += 1 }
        out(col) = s
    }
    out
  }

  /** `A·M` as p independent `A·v` passes (SystemML's CLA at the paper's
    * version did not support `A·M` — §5.2 excludes it; we provide it so
    * the NN workload still runs, noting the exclusion in the bench).
    */
  def timesMatrix(m: DenseMatrix): DenseMatrix = {
    require(m.rows == numCols)
    val p = m.cols
    val out = new Array[Double](numRows * p)
    var j = 0
    while (j < p) {
      val col = m.col(j)
      val r = timesVector(col)
      var i = 0
      while (i < numRows) { out(i * p + j) = r(i); i += 1 }
      j += 1
    }
    new DenseMatrix(numRows, p, out)
  }

  def leftTimes(m: DenseMatrix): DenseMatrix = {
    require(m.cols == numRows)
    val p = m.rows
    val out = new Array[Double](p * numCols)
    var r = 0
    while (r < p) {
      val row = Array.tabulate(numRows)(i => m.data(r * numRows + i))
      val res = vectorTimes(row)
      System.arraycopy(res, 0, out, r * numCols, numCols)
      r += 1
    }
    new DenseMatrix(p, numCols, out)
  }

  def timesScalar(c: Double): ClaMatrix =
    new ClaMatrix(numRows, numCols, groups.map(_.scaled(c)))

  def decode: DenseMatrix = {
    val out = DenseMatrix.zeros(numRows, numCols)
    groups.foreach { g =>
      var i = 0
      while (i < numRows) { out(i, g.col) = g.valueAt(i); i += 1 }
    }
    out
  }
}

object ClaEncoder extends MatrixEncoder {
  val name = "CLA"

  def encode(batch: DenseMatrix): ClaMatrix = {
    val groups = Array.tabulate[ClaGroup](batch.cols) { j =>
      val uc = UcGroup(j, batch.col(j))
      val (dict, codes) = ValueIndex(uc.values)
      val ddc = DdcGroup(j, dict, codes)
      // DDC pays off only while the dictionary stays small relative to rows.
      if (dict.length <= math.max(1, batch.rows / 2) && ddc.sizeBytes < uc.sizeBytes) ddc else uc
    }
    new ClaMatrix(batch.rows, batch.cols, groups)
  }

  def fromBytes(bytes: Array[Byte]): ClaMatrix = {
    val r = new ByteReader(bytes)
    val (rows, cols) = r.shape(colWidth = 4)
    val groups = Array.tabulate[ClaGroup](cols) { j =>
      val dictLen = r.count(8)
      if (dictLen == 0) UcGroup(j, r.doubles(rows))
      else {
        val group = DdcGroup(j, r.doubles(dictLen), r.packed(dictLen - 1))
        CorruptBatchException.check(group.codes.length == rows, s"CLA column $j: ${group.codes.length} codes")
        group
      }
    }
    r.end()
    new ClaMatrix(rows, cols, groups)
  }
}
