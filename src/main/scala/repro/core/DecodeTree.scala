package repro.core

/** The decode-side prefix tree `C'` of §4.1.2 (Algorithm 2), cut down to
  * the nodes that some code in `D` names.
  *
  * A flat, immutable variant of the encoding tree: each node keeps only
  * its key and its parent index (no child maps), which is all the
  * compressed kernels of §4 need. Index 0 is the root.
  *
  * Algorithm 2 adds a node for every code but a tuple's last, and many of
  * them are LZW dictionary entries no code ever names; the kernels would
  * compute, store and scan `H` for them for nothing. The named nodes are
  * closed under parents (the node built at position `j` of `D` has the
  * code `D(j)` as its parent, and a first-layer node has the root), so
  * they form a tree of their own. It is numbered in creation order, so
  * every parent stays below its child, and `codes` is `D` renumbered into
  * it: the kernels scan `codes` where the paper scans `D`. Tuple `r`'s
  * codes are `codes(rowPtr(r) until rowPtr(r + 1))`, as in CSR's `rowPtr`.
  *
  * Keys are stored as parallel primitive arrays (column / value /
  * parent) so the single-scan kernels of Algorithms 4/5/7/8 run without
  * per-node allocation — the C++-kernel fidelity the §5.2 measurements
  * rest on.
  *
  * Phase I numbers the first layer first, so nodes `1..k`, for
  * `k = rootChildren`, are the root's children and every later node has
  * a parent in `1..i−1`. The backward scans of `v·A` and `M·A` push no
  * weight from nodes `1..k` into the root, which no output reads.
  */
final class DecodeTree(
    val keyCols: Array[Int],
    val keyVals: Array[Double],
    val parents: Array[Int],
    val codes: Array[Int],
    val rowPtr: Array[Int] // length numRows + 1
) {
  /** Number of nodes including the root. */
  def size: Int = parents.length

  /** `k`: the length of the run of nodes from 1 on whose parent is the root. */
  val rootChildren: Int = {
    var k = 0
    while (k + 1 < parents.length && parents(k + 1) == 0) k += 1
    k
  }
}

object DecodeTree {

  /** Algorithm 2 straight off the physical arrays, keeping only the nodes
    * a code names.
    *
    * A mark pass over `D` flags every named node of the full tree (of
    * `n = 1 + len(I) + Σ (len(D[i]) − 1)` nodes) and counts them, which
    * sizes the kept tree. Phase I then walks `I` and phase II replays the
    * encoder over `D` as the paper does: for every code but a tuple's
    * last, a node is created whose parent is that code and whose key is
    * the *first* pair of the next code's sequence. A node gets the next
    * kept number if it is flagged, and 0 otherwise, so a dropped node's
    * writes land on the root's slot, which is reset at the end.
    *
    * Per full-tree node, `ids` holds its flag and then its kept number,
    * and `first` its first-layer node, whose key is the node's first pair
    * (Welch's decoder keeps the same: prefix code and first symbol).
    * `first(new)` is written before `first(next)` is read, so the LZW
    * self-reference case resolves correctly.
    */
  def buildFromPhysical(p: TocPhysical): DecodeTree = {
    val tokens = p.tokens
    val numRows = p.numRows
    val rowPtr = p.rowStarts :+ tokens.length
    val iCols = p.iCols; val iValIdx = p.iValIdx; val dict = p.dict
    val iLen = iCols.length
    // Every code but a tuple's last adds a node to the full tree.
    var n = 1 + iLen + tokens.length
    var r = 0
    while (r < numRows) { if (rowPtr(r) < rowPtr(r + 1)) n -= 1; r += 1 }

    // Mark pass: flag each named node and count the distinct ones.
    val ids = new Array[Int](n)
    var distinct = 0
    var j = 0
    while (j < tokens.length) {
      val code = tokens(j)
      if (code < 1 || code >= n) throw new CorruptBatchException(s"TOC code $code is not a node in 1..${n - 1}")
      distinct += 1 - ids(code)
      ids(code) = 1
      j += 1
    }
    val size = 1 + distinct
    val keyCols = new Array[Int](size)
    val keyVals = new Array[Double](size)
    val parents = new Array[Int](size)
    val codes = new Array[Int](tokens.length)
    val first = new Array[Int](n)
    var kept = 0

    // Phase I: first layer from I, children of the root (parents stay 0).
    var k = 1
    while (k <= iLen) {
      val mark = ids(k)
      kept += mark
      val id = mark * kept
      ids(k) = id; first(k) = k
      keyCols(id) = iCols(k - 1); keyVals(id) = dict(iValIdx(k - 1))
      k += 1
    }

    // Phase II: replay D. A code must name a node built before it, except
    // that `next` may name the node being built (the LZW self-reference
    // case); so every parent is below its node and no chain cycles.
    // Each new node's key column (the next code's first column) must also
    // be above its parent's last column (the current code's key column),
    // as §3's sparse encoding emits every tuple's pairs in ascending
    // column order. So every sequence ascends strictly, and no chain is
    // longer than `numCols`: the self-reference case, which only a
    // repeated column can build, is rejected.
    def checkCode(code: Int, last: Int): Unit =
      if (code > last) throw new CorruptBatchException(s"TOC code $code is not a node in 1..$last")
    var ascending = true
    var idxSeqNum = iLen + 1
    r = 0
    while (r < numRows) {
      val to = rowPtr(r + 1)
      j = rowPtr(r)
      if (j < to) checkCode(tokens(j), idxSeqNum - 1)
      while (j < to - 1) {
        val code = tokens(j)
        val cur = ids(code)
        codes(j) = cur
        first(idxSeqNum) = first(code)
        val next = tokens(j + 1)
        checkCode(next, idxSeqNum)
        val f = first(next) - 1
        ascending &= iCols(f) > keyCols(cur)
        val mark = ids(idxSeqNum)
        kept += mark
        val id = mark * kept
        ids(idxSeqNum) = id
        parents(id) = cur
        keyCols(id) = iCols(f); keyVals(id) = dict(iValIdx(f))
        idxSeqNum += 1
        j += 1
      }
      if (j < to) codes(j) = ids(tokens(j))
      r += 1
    }
    CorruptBatchException.check(ascending, "TOC: a tuple's columns do not ascend")
    keyCols(0) = 0; keyVals(0) = 0.0; parents(0) = -1
    new DecodeTree(keyCols, keyVals, parents, codes, rowPtr)
  }
}
