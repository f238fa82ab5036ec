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

  /** Algorithm 2 straight off the physical arrays. Phase I seeds nodes
    * `1..len(I)` from `I`; phase II replays the encoder over `D` — for
    * every code except a tuple's last, a node is created whose parent is
    * that code and whose key is the *first* pair of the next code's
    * sequence. `first` holds each node's first-layer node, whose key is
    * that pair (Welch's decoder keeps the same: prefix code and first
    * symbol); `first(new)` is written before `first(next)` is read so the
    * LZW self-reference case resolves correctly.
    */
  def buildFromPhysical(p: TocPhysical): DecodeTree = {
    val tokens = p.tokens
    val rowStarts = p.rowStarts
    val numRows = rowStarts.length
    def end(r: Int): Int = if (r + 1 < numRows) rowStarts(r + 1) else tokens.length
    val iLen = p.iCols.length
    // Every code but a tuple's last adds a node.
    var n = 1 + iLen + tokens.length
    var r = 0
    while (r < numRows) { if (rowStarts(r) < end(r)) n -= 1; r += 1 }
    val keyCols = new Array[Int](n)
    val keyVals = new Array[Double](n)
    val parents = new Array[Int](n)
    val first = new Array[Int](n)
    parents(0) = -1

    // Phase I: first layer from I, children of the root (parents stay 0).
    var k = 1
    while (k <= iLen) {
      keyCols(k) = p.iCols(k - 1); keyVals(k) = p.dict(p.iValIdx(k - 1))
      first(k) = k
      k += 1
    }

    // Phase II: replay D. A code must name a node built before it, except
    // that `next` may name the node being built (the LZW self-reference
    // case); so every parent is below its node and no chain cycles.
    def checkCode(code: Int, last: Int): Unit =
      if (code < 1 || code > last) throw new CorruptBatchException(s"TOC code $code is not a node in 1..$last")
    var idxSeqNum = iLen + 1
    r = 0
    while (r < numRows) {
      val to = end(r)
      var j = rowStarts(r)
      if (j < to) checkCode(tokens(j), idxSeqNum - 1)
      while (j < to - 1) {
        val cur = tokens(j)
        parents(idxSeqNum) = cur
        first(idxSeqNum) = first(cur)
        val next = tokens(j + 1)
        checkCode(next, idxSeqNum)
        val f = first(next)
        keyCols(idxSeqNum) = keyCols(f); keyVals(idxSeqNum) = keyVals(f)
        idxSeqNum += 1
        j += 1
      }
      r += 1
    }
    new DecodeTree(keyCols, keyVals, parents)
  }
}
