package repro.core

/** The decode-side prefix tree `C'` of §4.1.2 (Algorithm 2).
  *
  * A flat, immutable variant of the encoding tree: each node keeps only
  * its key and its parent index (no child maps), which is all the
  * compressed kernels of §4 need. Index 0 is the root.
  *
  * Keys are stored as parallel primitive arrays (column / value /
  * parent) so the single-scan kernels of Algorithms 4/5/7/8 run without
  * per-node allocation — the C++-kernel fidelity the §5.2 measurements
  * rest on.
  */
final class DecodeTree(
    val keyCols: Array[Int],
    val keyVals: Array[Double],
    val parents: Array[Int]
) {
  /** Number of nodes including the root (`len(C')`). */
  def size: Int = parents.length
}

object DecodeTree {

  /** Algorithm 2 straight off the physical arrays — the kernel path. */
  def buildFromPhysical(p: TocPhysical): DecodeTree = {
    val iVals = new Array[Double](p.iValIdx.length)
    var k = 0
    while (k < iVals.length) { iVals(k) = p.dict(p.iValIdx(k)); k += 1 }
    buildRaw(p.iCols, iVals, p.tokens, p.rowStarts)
  }

  /** Algorithm 2 core: phase I seeds nodes `1..len(I)` from `I`; phase II
    * replays the encoder over `D` — for every code except a tuple's last,
    * a node is created whose parent is that code and whose key is the
    * *first* pair of the next code's sequence. `F` (fCol/fVal) tracks
    * first pairs; `F[new]` is written before `F[next]` is read so the
    * LZW self-reference case resolves correctly.
    */
  def buildRaw(iCols: Array[Int], iVals: Array[Double],
               tokens: Array[Int], rowStarts: Array[Int]): DecodeTree = {
    val numRows = rowStarts.length
    var extra = 0
    var r = 0
    while (r < numRows) {
      val to = if (r + 1 < numRows) rowStarts(r + 1) else tokens.length
      val len = to - rowStarts(r)
      if (len > 1) extra += len - 1
      r += 1
    }
    val n = 1 + iCols.length + extra
    val keyCols = new Array[Int](n)
    val keyVals = new Array[Double](n)
    val parents = new Array[Int](n)
    val fCol = new Array[Int](n)
    val fVal = new Array[Double](n)
    parents(0) = -1

    // Phase I: first layer from I.
    var k = 1
    while (k <= iCols.length) {
      keyCols(k) = iCols(k - 1); keyVals(k) = iVals(k - 1)
      parents(k) = 0
      fCol(k) = iCols(k - 1); fVal(k) = iVals(k - 1)
      k += 1
    }

    // Phase II: replay D. A code must name a node built before it, except
    // that `next` may name the node being built (the LZW self-reference
    // case); so every parent is below its node and no chain cycles.
    def checkCode(code: Int, last: Int): Unit =
      if (code < 1 || code > last) throw new CorruptBatchException(s"TOC code $code is not a node in 1..$last")
    var idxSeqNum = iCols.length + 1
    r = 0
    while (r < numRows) {
      val to = if (r + 1 < numRows) rowStarts(r + 1) else tokens.length
      var j = rowStarts(r)
      if (j < to) checkCode(tokens(j), idxSeqNum - 1)
      while (j < to - 1) {
        val cur = tokens(j)
        parents(idxSeqNum) = cur
        fCol(idxSeqNum) = fCol(cur); fVal(idxSeqNum) = fVal(cur)
        val next = tokens(j + 1)
        checkCode(next, idxSeqNum)
        keyCols(idxSeqNum) = fCol(next); keyVals(idxSeqNum) = fVal(next)
        idxSeqNum += 1
        j += 1
      }
      r += 1
    }
    new DecodeTree(keyCols, keyVals, parents)
  }
}
