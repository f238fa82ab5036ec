package repro.core

import repro.linalg.DenseMatrix

/** One tuple of §3's sparse table `B`: its column_index:value pairs, the
  * compression unit of TOC, as parallel column and value arrays.
  */
final case class SparseRow(cols: Array[Int], vals: Array[Double]) { def length: Int = cols.length }

/** §3 sparse encoding: drop zeros, prefix each remaining value with its
  * column index. Only `+0.0` is a zero: `-0.0` is kept, so decoding is
  * bit-exact. `A` (dense table) becomes `B` (per-row pair sequences).
  */
object SparseEncoder {
  /** Encode the full table `A` → `B`. */
  def encode(a: DenseMatrix): Array[SparseRow] = {
    val cols = new Array[Int](a.cols)
    val vals = new Array[Double](a.cols)
    Array.tabulate(a.rows) { i =>
      var n = 0
      var j = 0
      // Branch-free: every cell is written at `n`, and `n` moves on only
      // when its raw bits are non-zero, the one case where `bits | -bits`
      // has the sign bit set.
      while (j < a.cols) {
        val v = a.data(i * a.cols + j)
        val bits = java.lang.Double.doubleToRawLongBits(v)
        cols(n) = j
        vals(n) = v
        n += ((bits | -bits) >>> 63).toInt
        j += 1
      }
      SparseRow(java.util.Arrays.copyOf(cols, n), java.util.Arrays.copyOf(vals, n))
    }
  }
}
