package repro.core

import repro.linalg.{DenseMatrix, EncodedMatrix, MatrixEncoder}

/** A TOC-compressed mini-batch with the compressed execution kernels of §4.
  *
  * Each multiplication needs the decode tree `C'` (Algorithm 2); the
  * paper's pseudocode rebuilds it inside every op (its cost is why §5.2
  * reports TOC 2-3x behind CSR on `A·v`). Here `C'` is built on first use
  * and memoized for the lifetime of this in-memory batch object — it is
  * an immutable function of (`I`, `D`), so repeated ops over the same
  * resident batch (10 one-vs-rest models x ops x epochs in MGD) don't
  * re-pay it. A batch freshly parsed from bytes (`TocEncoder.fromBytes`,
  * as the Spark executors do every epoch) still pays the build, and the
  * §5.2 op bench measures from bytes to keep the paper's accounting.
  *
  * `C'` keeps only the nodes some code names, and every kernel scans
  * `tree.codes` (`D` renumbered into that tree) where the paper scans `D`
  * ([[DecodeTree]]). On finite data the results are bit-identical to the
  * full tree's: `A·v` never reads a dropped node's `H` row, and for one
  * `v·A` would only add `key · 0.0`, which leaves a sum unchanged but
  * turns a ±Inf answer into NaN when the key is ±Inf or NaN.
  *
  * The kernels' scratch table `H` (`|C'|` doubles, or `|C'|·p` for `A·M`
  * and `M·A`) is not allocated per call: each kernel takes the one
  * [[Spare]] array of the JVM, or its own while the spare is too small or
  * held by another thread, and gives it back when done. Each kernel resets
  * only what it reads before writing: the root's slots on the right, all
  * of `H` on the left, where `H` accumulates. No result aliases it.
  */
final class TocMatrix(val physical: TocPhysical) extends EncodedMatrix {
  def numRows: Int = physical.numRows
  def numCols: Int = physical.numCols
  def sizeBytes: Long = physical.sizeBytes
  def encoder: MatrixEncoder = TocEncoder

  /** `C'` (Algorithm 2), memoized per batch instance. */
  private lazy val cachedTree: DecodeTree = DecodeTree.buildFromPhysical(physical)

  /** Algorithm 4: `A·v` via `H[i] = key_i · v + H[parent_i]` then one scan of `D`. */
  def timesVector(v: Array[Double]): Array[Double] = {
    require(v.length == numCols)
    val tree = cachedTree
    val h = TocMatrix.takeH(tree.size)
    h(0) = 0.0
    var i = 1
    while (i < tree.size) {
      h(i) = tree.keyVals(i) * v(tree.keyCols(i)) + h(tree.parents(i))
      i += 1
    }
    val r = new Array[Double](numRows)
    val codes = tree.codes; val rowPtr = tree.rowPtr
    var row = 0
    while (row < numRows) {
      val to = rowPtr(row + 1)
      var j = rowPtr(row)
      var s = 0.0
      while (j < to) { s += h(codes(j)); j += 1 }
      r(row) = s
      row += 1
    }
    TocMatrix.spareH.give(h)
    r
  }

  /** Algorithm 5: `v·A` via code-frequency accumulation then a backward
    * scan of `C'` that pushes each node's weight up to its parent. The
    * root's children (nodes `1..k`, [[DecodeTree.rootChildren]]) push
    * nothing: their pushes would all add into `h(0)`, which no output
    * reads, one after another.
    */
  def vectorTimes(v: Array[Double]): Array[Double] = {
    require(v.length == numRows)
    val tree = cachedTree
    val h = TocMatrix.takeH(tree.size)
    java.util.Arrays.fill(h, 0, tree.size, 0.0)
    val codes = tree.codes; val rowPtr = tree.rowPtr
    var row = 0
    while (row < numRows) {
      val to = rowPtr(row + 1)
      var j = rowPtr(row)
      while (j < to) { h(codes(j)) += v(row); j += 1 }
      row += 1
    }
    val r = new Array[Double](numCols)
    val keyCols = tree.keyCols; val keyVals = tree.keyVals; val parents = tree.parents
    val k = tree.rootChildren
    var i = tree.size - 1
    while (i > k) {
      r(keyCols(i)) += keyVals(i) * h(i)
      h(parents(i)) += h(i)
      i -= 1
    }
    while (i >= 1) {
      r(keyCols(i)) += keyVals(i) * h(i)
      i -= 1
    }
    TocMatrix.spareH.give(h)
    r
  }

  /** Algorithm 7: `A·M` — the matrix generalization of Algorithm 4, with
    * the column loop innermost for one sequential scan of `D` (§B.1).
    */
  def timesMatrix(m: DenseMatrix): DenseMatrix = {
    require(m.rows == numCols)
    val p = m.cols
    val tree = cachedTree
    if (tree.size.toLong * p > TocMatrix.HTableBudgetDoubles)
      return timesMatrixByChains(tree, m)
    val h = TocMatrix.takeH(tree.size * p)
    java.util.Arrays.fill(h, 0, p, 0.0)
    var i = 1
    while (i < tree.size) {
      val kv = tree.keyVals(i)
      val parentBase = tree.parents(i) * p
      val mBase = tree.keyCols(i) * p
      val base = i * p
      var j = 0
      while (j < p) { h(base + j) = kv * m.data(mBase + j) + h(parentBase + j); j += 1 }
      i += 1
    }
    val out = new Array[Double](numRows * p)
    val codes = tree.codes; val rowPtr = tree.rowPtr
    var row = 0
    while (row < numRows) {
      val to = rowPtr(row + 1)
      val rBase = row * p
      var j = rowPtr(row)
      while (j < to) {
        val hBase = codes(j) * p
        var c = 0
        while (c < p) { out(rBase + c) += h(hBase + c); c += 1 }
        j += 1
      }
      row += 1
    }
    TocMatrix.spareH.give(h)
    new DenseMatrix(numRows, p, out)
  }

  /** Algorithm 8: `M·A` — the matrix generalization of Algorithm 5, with
    * `H` stored transposed (node-major) for one sequential scan (§B.2).
    * As in [[vectorTimes]], the root's children push nothing to the root.
    */
  def leftTimes(m: DenseMatrix): DenseMatrix = {
    require(m.cols == numRows)
    val p = m.rows
    val tree = cachedTree
    if (tree.size.toLong * p > TocMatrix.HTableBudgetDoubles)
      return leftTimesByChains(tree, m)
    // H stored node-major (the paper's "transposed" layout, §B.2); `m` is
    // transposed once and the result accumulated column-major so every
    // inner loop is a contiguous burst — the random accesses stay on the
    // (small) per-node granularity.
    val mT = m.transpose.data                   // numRows x p
    val h = TocMatrix.takeH(tree.size * p)
    java.util.Arrays.fill(h, 0, tree.size * p, 0.0)
    val codes = tree.codes; val rowPtr = tree.rowPtr
    var row = 0
    while (row < numRows) {
      val to = rowPtr(row + 1)
      val mBase = row * p
      var j = rowPtr(row)
      while (j < to) {
        val hBase = codes(j) * p
        var k = 0
        while (k < p) { h(hBase + k) += mT(mBase + k); k += 1 }
        j += 1
      }
      row += 1
    }
    val outT = new Array[Double](numCols * p)   // column-major accumulator
    val keyCols = tree.keyCols; val keyVals = tree.keyVals; val parents = tree.parents
    val rootChildren = tree.rootChildren
    var i = tree.size - 1
    while (i > rootChildren) {
      val kv = keyVals(i)
      val oBase = keyCols(i) * p
      val hBase = i * p
      val parentBase = parents(i) * p
      var k = 0
      while (k < p) {
        outT(oBase + k) += kv * h(hBase + k)
        h(parentBase + k) += h(hBase + k)
        k += 1
      }
      i -= 1
    }
    while (i >= 1) {
      val kv = keyVals(i)
      val oBase = keyCols(i) * p
      val hBase = i * p
      var k = 0
      while (k < p) { outT(oBase + k) += kv * h(hBase + k); k += 1 }
      i -= 1
    }
    TocMatrix.spareH.give(h)
    new DenseMatrix(numCols, p, outT).transpose // p x numCols
  }

  /** `A·M` fallback for large `H` tables: expand each code's sequence by
    * walking `C'` parent chains directly (still decompression-free — no
    * dense materialization). Cost is `O(nnz · p)`, the CSR cost, instead
    * of Algorithm 7's `O((|I|+|D|) · p)` plus a `|C'|·p` table that
    * thrashes the cache when `|C'|·p` is large.
    */
  private def timesMatrixByChains(tree: DecodeTree, m: DenseMatrix): DenseMatrix = {
    val p = m.cols
    val out = new Array[Double](numRows * p)
    val codes = tree.codes; val rowPtr = tree.rowPtr
    var row = 0
    while (row < numRows) {
      val to = rowPtr(row + 1)
      val rBase = row * p
      var j = rowPtr(row)
      while (j < to) {
        var cur = codes(j)
        while (cur != 0) {
          val kv = tree.keyVals(cur)
          val mBase = tree.keyCols(cur) * p
          var c = 0
          while (c < p) { out(rBase + c) += kv * m.data(mBase + c); c += 1 }
          cur = tree.parents(cur)
        }
        j += 1
      }
      row += 1
    }
    new DenseMatrix(numRows, p, out)
  }

  /** `M·A` fallback for large `H` tables (see [[timesMatrixByChains]]). */
  private def leftTimesByChains(tree: DecodeTree, m: DenseMatrix): DenseMatrix = {
    val p = m.rows
    val mT = m.transpose.data                   // numRows x p
    val outT = new Array[Double](numCols * p)   // column-major accumulator
    val codes = tree.codes; val rowPtr = tree.rowPtr
    var row = 0
    while (row < numRows) {
      val to = rowPtr(row + 1)
      val mBase = row * p
      var j = rowPtr(row)
      while (j < to) {
        var cur = codes(j)
        while (cur != 0) {
          val kv = tree.keyVals(cur)
          val oBase = tree.keyCols(cur) * p
          var c = 0
          while (c < p) { outT(oBase + c) += kv * mT(mBase + c); c += 1 }
          cur = tree.parents(cur)
        }
        j += 1
      }
      row += 1
    }
    new DenseMatrix(numCols, p, outT).transpose
  }

  /** Algorithm 3: sparse-safe `A .* c` — scale the value dictionary only,
    * staying compressed; `O(|I|)` (here `O(|dict|) ≤ O(|I|)`).
    */
  def timesScalar(c: Double): TocMatrix =
    new TocMatrix(physical.copy(dict = physical.dict.map(_ * c)))

  /** Full decode (Algorithm 6's decode step): backtrack `C'` per code. */
  def decode: DenseMatrix = {
    val tree = cachedTree
    val out = DenseMatrix.zeros(numRows, numCols)
    val codes = tree.codes; val rowPtr = tree.rowPtr
    var row = 0
    while (row < numRows) {
      val to = rowPtr(row + 1)
      var j = rowPtr(row)
      while (j < to) {
        var cur = codes(j)
        while (cur != 0) {
          out(row, tree.keyCols(cur)) = tree.keyVals(cur)
          cur = tree.parents(cur)
        }
        j += 1
      }
      row += 1
    }
    out
  }

  /** The §3.2 physical byte layout. */
  def toBytes: Array[Byte] = physical.toBytes
}

object TocMatrix {
  /** `H`-table budget (in doubles, 16 MB) above which `A·M`/`M·A` switch
    * from Algorithm 7/8's dynamic program to direct chain expansion. It is
    * compared with the kept tree's `size · p`, the table the DP allocates.
    * At the paper's op-bench setting (p = 20) every analog stays on the DP
    * path; the fallback engages for wide NN layers over low-redundancy
    * batches, where the DP's `|C'|·p` table would thrash the cache.
    */
  val HTableBudgetDoubles: Long = 2L * 1024 * 1024

  /** The kernels' spare `H`: the array given back last, so at most
    * [[HTableBudgetDoubles]] long, since above that no kernel uses one.
    */
  private val spareH = new Spare[Array[Double]]

  /** An `H` of at least `n` doubles, holding whatever the last call left. */
  private def takeH(n: Int): Array[Double] = {
    val h = spareH.take(new Array[Double](n))
    if (h.length >= n) h else new Array[Double](n)
  }
}

/** Factory for TOC plus the Figure 6 ablation's logical-only size. */
object TocEncoder extends MatrixEncoder {
  val name = "TOC"

  def encode(batch: DenseMatrix): TocMatrix = {
    val sparse = SparseEncoder.encode(batch)
    val logical = PrefixTreeEncoder.encode(sparse)
    new TocMatrix(TocPhysical.encode(batch.rows, batch.cols, logical))
  }

  def fromBytes(bytes: Array[Byte]): TocMatrix = new TocMatrix(TocPhysical.fromBytes(bytes))

  /** TOC_SPARSE_AND_LOGICAL (Figure 6): `toc`'s logical encoding without
    * its physical one, `I` as (int32, float64) pairs and `D` as int32
    * codes plus int32 row starts. A size formula, since no format writes
    * `I` unpacked. (TOC_SPARSE, §3's sparse encoding alone, is CSR's bytes.)
    */
  def sparseLogicalSizeBytes(toc: TocMatrix): Long = {
    val p = toc.physical
    8L + 12L * p.iCols.length + 4L * p.tokens.length + 4L * p.numRows
  }
}
