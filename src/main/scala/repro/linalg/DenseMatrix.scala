package repro.linalg

/** Minimal row-major dense matrix used as the uncompressed reference
  * representation throughout the reproduction.
  *
  * This is deliberately a thin wrapper over a flat `Array[Double]` — every
  * compressed-execution kernel in the paper is compared against plain loops
  * over this structure, so keeping it primitive keeps the comparison honest.
  */
final class DenseMatrix(val rows: Int, val cols: Int, val data: Array[Double])
    extends Serializable {
  require(data.length == rows.toLong * cols, s"bad shape: $rows x $cols vs ${data.length}")

  /** Element accessor (row-major). */
  @inline def apply(i: Int, j: Int): Double = data(i * cols + j)

  /** In-place element update. */
  @inline def update(i: Int, j: Int, v: Double): Unit = data(i * cols + j) = v

  /** Copy of row `i` as a dense vector. */
  def row(i: Int): Array[Double] = java.util.Arrays.copyOfRange(data, i * cols, (i + 1) * cols)

  /** Copy of column `j` as a dense vector. */
  def col(j: Int): Array[Double] = Array.tabulate(rows)(i => data(i * cols + j))

  /** Reference dense mat-vec: `this · v`, v of length `cols`. */
  def timesVector(v: Array[Double]): Array[Double] = {
    require(v.length == cols)
    val out = new Array[Double](rows)
    var i = 0
    while (i < rows) {
      var s = 0.0; var j = 0; val base = i * cols
      while (j < cols) { s += data(base + j) * v(j); j += 1 }
      out(i) = s; i += 1
    }
    out
  }

  /** Reference dense vec-mat: `v · this`, v of length `rows`. */
  def vectorTimes(v: Array[Double]): Array[Double] = {
    require(v.length == rows)
    val out = new Array[Double](cols)
    var i = 0
    while (i < rows) {
      val vi = v(i)
      if (vi != 0.0) {
        var j = 0; val base = i * cols
        while (j < cols) { out(j) += vi * data(base + j); j += 1 }
      }
      i += 1
    }
    out
  }

  /** Reference dense mat-mat: `this · m`, m is cols x p. */
  def timesMatrix(m: DenseMatrix): DenseMatrix = {
    require(m.rows == cols, s"shape mismatch: ${rows}x$cols · ${m.rows}x${m.cols}")
    val p = m.cols
    val out = new Array[Double](rows * p)
    var i = 0
    while (i < rows) {
      var k = 0
      while (k < cols) {
        val a = data(i * cols + k)
        if (a != 0.0) {
          var j = 0
          while (j < p) { out(i * p + j) += a * m.data(k * p + j); j += 1 }
        }
        k += 1
      }
      i += 1
    }
    new DenseMatrix(rows, p, out)
  }

  /** Reference dense mat-mat from the left: `m · this`, m is p x rows. */
  def leftTimes(m: DenseMatrix): DenseMatrix = {
    require(m.cols == rows, s"shape mismatch: ${m.rows}x${m.cols} · ${rows}x$cols")
    m.timesMatrix(this)
  }

  /** Element-wise scalar multiply (fresh matrix). */
  def timesScalar(c: Double): DenseMatrix =
    new DenseMatrix(rows, cols, data.map(_ * c))

  /** Element-wise scalar add (fresh matrix) — the sparse-unsafe op. */
  def plusScalar(c: Double): DenseMatrix =
    new DenseMatrix(rows, cols, data.map(_ + c))

  /** Transpose (fresh matrix). */
  def transpose: DenseMatrix = {
    val out = new Array[Double](rows * cols)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) { out(j * rows + i) = data(i * cols + j); j += 1 }
      i += 1
    }
    new DenseMatrix(cols, rows, out)
  }

  /** Fraction of non-zero cells. */
  def sparsity: Double = data.count(_ != 0.0).toDouble / data.length

  /** Size of the DEN (IEEE-754 double, row-major) serialization in bytes. */
  def denSizeBytes: Long = 8L * rows * cols + 8L // 8-byte shape header

  override def equals(o: Any): Boolean = o match {
    case m: DenseMatrix =>
      m.rows == rows && m.cols == cols && java.util.Arrays.equals(m.data, data)
    case _ => false
  }
  override def hashCode: Int = java.util.Arrays.hashCode(data) * 31 + rows

  override def toString: String = s"DenseMatrix(${rows}x$cols)"
}

object DenseMatrix {
  /** All-zero matrix. */
  def zeros(rows: Int, cols: Int): DenseMatrix =
    new DenseMatrix(rows, cols, new Array[Double](rows * cols))

  /** Deterministic pseudo-random matrix (test convenience). */
  def rand(rows: Int, cols: Int, seed: Long, sparsity: Double = 1.0): DenseMatrix = {
    val rng = new scala.util.Random(seed)
    val data = Array.fill(rows * cols) {
      if (rng.nextDouble() < sparsity) rng.nextDouble() * 10 - 5 else 0.0
    }
    new DenseMatrix(rows, cols, data)
  }
}
