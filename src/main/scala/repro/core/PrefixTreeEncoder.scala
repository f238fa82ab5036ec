package repro.core

/** `I`, the first tree layer of §3.1, value-indexed as in §3.2: node
  * `k+1`'s key is column `cols(k)` and value `dict(valIdx(k))`, and `dict`
  * holds the distinct values in first-occurrence order.
  */
final case class FirstLayer(cols: Array[Int], valIdx: Array[Int], dict: Array[Double]) {
  def length: Int = cols.length
}

/** Output of logical encoding (§3.1): `I`, and `D` as every tuple's
  * node-index codes concatenated in `tokens`, tuple `r`'s codes starting
  * at `rowStarts(r)`.
  */
final case class LogicalEncoded(i: FirstLayer, tokens: Array[Int], rowStarts: Array[Int])

/** Algorithm 1: the LZW-style prefix tree encoding algorithm.
  *
  * Phase I seeds the tree with every unique pair (in first-occurrence
  * order); phase II greedily matches each tuple against the longest known
  * sequence, emitting node indexes and growing the tree by one node per
  * emitted code (except a tuple's last code).
  *
  * The tree is the classic LZW dictionary (Welch, IEEE Computer 1984), a
  * map from (parent node, pair) to child node, held as a trie whose
  * children form a list (de la Briandais, WJCC 1959). The first layer is
  * one [[PairTable]] probe on a pair's column and the raw bits of its
  * value, so equal pairs always share a node, NaN included. Below it, each
  * node's children are one list in creation order, in two arrays indexed
  * by node number: a node's first child and a child's next sibling, each
  * kept with the first-layer node of the pair that reaches it. A lookup
  * walks the list and a new child goes at its tail, so every lookup finds
  * the node that one table of all children would.
  *
  * The tables outlive a call: one [[Spare]] set per JVM is reused, so a
  * batch probes slots already grown to a batch's size instead of doubling
  * fresh tables from 16 slots and leaving them as garbage. A call leaves
  * its set empty before giving it back.
  */
object PrefixTreeEncoder {

  /** The tables of one encode: value ids, first-layer nodes, and the
    * trie's lists below them. `firstChild(n)` is node `n`'s first child
    * `c`, reached by first-layer node `p`, as `key(p, c)`; `sibling(c)` is
    * `c`'s next sibling the same way; 0 ends a list. A node's two slots
    * are zeroed when it is made, and the first layer's `firstChild` slots
    * when phase II starts, so the arrays are never cleared.
    */
  private[core] final class Tables {
    val values, firstLayer = new PairTable
    var firstChild, sibling = new Array[Long](16)

    /** Grows both arrays, if needed, to hold nodes `0 until n`. They grow
      * by an eighth, not by doubling, so the set stays near the size of
      * the largest batch encoded.
      */
    def hold(n: Int): Unit = if (firstChild.length < n) {
      firstChild = java.util.Arrays.copyOf(firstChild, n + n / 8)
      sibling = java.util.Arrays.copyOf(sibling, n + n / 8)
    }

    def clear(): Unit = { values.clear(); firstLayer.clear() }
  }

  private val spare = new Spare[Tables]

  /** A table key for the int pair (`hi`, `lo`), `lo` ≥ 0. */
  @inline private def key(hi: Int, lo: Int): Long = (hi.toLong << 32) | lo

  /** Encode sparse table `B` into (`I`, `D`). */
  def encode(b: Array[SparseRow]): LogicalEncoded = {
    val tables = spare.take(new Tables)
    val encoded = encode(b, tables)
    spare.give(tables)
    encoded
  }

  /** [[encode]] on `tables`, which must be empty, as a call leaves them. */
  private[core] def encode(b: Array[SparseRow], tables: Tables): LogicalEncoded = {
    // Phase I: node 1..|I| for each unique pair, in first-occurrence order;
    // `pairNodes` holds every pair's first-layer node. A value's first
    // occurrence is also its pair's, so numbering values as new pairs
    // come gives `I`'s value index (§3.2) in the dictionary's order.
    val values = new ValueIndex(tables.values)
    val firstLayer = tables.firstLayer
    val iCols, iValIdx = Array.newBuilder[Int]
    var numPairs = 0
    for (t <- b) numPairs += t.length // a foldLeft would box each partial sum
    val pairNodes = new Array[Int](numPairs)
    var p = 0
    var r = 0
    while (r < b.length) {
      val t = b(r)
      var j = 0
      while (j < t.length) {
        val c = t.cols(j)
        var n = firstLayer.putIfAbsent(c, java.lang.Double.doubleToRawLongBits(t.vals(j)), firstLayer.size + 1)
        if (n == 0) { n = firstLayer.size; iCols += c; iValIdx += values(t.vals(j)) }
        pairNodes(p) = n
        p += 1
        j += 1
      }
      r += 1
    }

    // Phase II: LongestMatchFromTree from each pair, AddNode(match, next
    // pair) where the match stops inside the tuple, then emit the match.
    // The walk down `n`'s children stops at the child reached by `pair`,
    // or at the tail, where the new node goes. Every match is ≥ 1 pair
    // long because phase I seeded every pair, so the codes overwrite
    // `pairNodes` behind the pairs still to be read. `nextNode` stays
    // below the arrays' length, so a new node's slots exist.
    var nextNode = firstLayer.size + 1
    tables.hold(nextNode + 1)
    var firstChild = tables.firstChild
    var sibling = tables.sibling
    java.util.Arrays.fill(firstChild, 1, nextNode, 0L)
    val rowStarts = new Array[Int](b.length)
    var numTokens = 0
    var j = 0
    r = 0
    while (r < b.length) {
      rowStarts(r) = numTokens
      val to = j + b(r).length
      while (j < to) {
        var n = pairNodes(j)
        j += 1
        var matching = true
        while (matching && j < to) {
          val pair = pairNodes(j)
          var link = firstChild(n)
          var last = 0 // the child whose sibling slot holds `link`, 0 while it is `n`'s first
          while (link != 0 && (link >>> 32).toInt != pair) { last = link.toInt; link = sibling(last) }
          if (link != 0) { n = link.toInt; j += 1 }
          else {
            if (last == 0) firstChild(n) = key(pair, nextNode) else sibling(last) = key(pair, nextNode)
            firstChild(nextNode) = 0L
            sibling(nextNode) = 0L
            nextNode += 1
            matching = false
          }
        }
        if (nextNode == firstChild.length) {
          tables.hold(nextNode + 1)
          firstChild = tables.firstChild
          sibling = tables.sibling
        }
        pairNodes(numTokens) = n
        numTokens += 1
      }
      r += 1
    }
    tables.clear()
    LogicalEncoded(FirstLayer(iCols.result(), iValIdx.result(), values.dict),
      java.util.Arrays.copyOf(pairNodes, numTokens), rowStarts)
  }
}
