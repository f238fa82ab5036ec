package repro.core

import repro.linalg.DenseMatrix

/** A column_index:value pair — the compression unit of TOC (§3).
  *
  * Also the sparse representation of a length-`numCols` vector with a
  * single non-zero, which is how Theorems 1–4 treat `C'[i].key`.
  */
final case class ColValue(col: Int, value: Double)

/** §3 sparse encoding: drop zeros, prefix each remaining value with its
  * column index. Only `+0.0` is a zero: `-0.0` is kept, so decoding is
  * bit-exact. `A` (dense table) becomes `B` (per-row pair sequences).
  */
object SparseEncoder {
  /** Encode one dense row. */
  def encodeRow(row: Array[Double]): Array[ColValue] = {
    val out = Array.newBuilder[ColValue]
    var j = 0
    while (j < row.length) {
      if (java.lang.Double.doubleToRawLongBits(row(j)) != 0L) out += ColValue(j, row(j))
      j += 1
    }
    out.result()
  }

  /** Encode the full table `A` → `B`. */
  def encode(a: DenseMatrix): Array[Array[ColValue]] =
    Array.tabulate(a.rows)(i => encodeRow(a.row(i)))
}
