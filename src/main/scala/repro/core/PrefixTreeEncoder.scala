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
  * map from (parent node, pair) to child node, held so that most lookups
  * touch no hash table. The first layer is one [[PairTable]] probe on a
  * pair's column and the raw bits of its value, so equal pairs always
  * share a node, NaN included. Below it, each node's first child is kept
  * with the pair that reaches it in an array indexed by node number; only
  * a node's second and later children go into a (node, pair) → child
  * [[LongIntTable]]. Each (node, pair) lives in exactly one of the two, so
  * every lookup finds the node that one table of all children would.
  *
  * The tables outlive a call: one [[Spare]] set per JVM is reused, so a
  * batch probes slots already grown to a batch's size instead of doubling
  * fresh tables from 16 slots and leaving them as garbage. A call clears
  * its set before giving it back.
  */
object PrefixTreeEncoder {

  /** The tables of one encode: value ids, first-layer nodes, each node's
    * first child and the (node, pair) → child map of the later children.
    */
  private final class Tables {
    val values, children = new LongIntTable
    val firstLayer = new PairTable
    /** Node `n`'s first child `c`, reached by first-layer node `p`, as
      * `key(p, c)` at index `n`; 0 while `n` has no child.
      */
    private var firstChild = new Array[Long](16)
    /** The last encode's node count: `firstChild` is 0 from this index on. */
    var nodes = 0

    /** `firstChild`, grown if needed to hold nodes `0 until n`. It grows
      * by an eighth, not by doubling, so the set stays near the size of
      * the largest batch encoded.
      */
    def firstChildFor(n: Int): Array[Long] = {
      if (firstChild.length < n) firstChild = java.util.Arrays.copyOf(firstChild, n + n / 8)
      firstChild
    }

    def clear(): Unit = {
      values.clear(); firstLayer.clear(); children.clear()
      java.util.Arrays.fill(firstChild, 0, nodes, 0L)
      nodes = 0
    }
  }

  private val spare = new Spare[Tables]

  /** A table key for the int pair (`hi`, `lo`), `lo` ≥ 0. */
  @inline private def key(hi: Int, lo: Int): Long = (hi.toLong << 32) | lo

  /** Encode sparse table `B` into (`I`, `D`). */
  def encode(b: Array[SparseRow]): LogicalEncoded = {
    val tables = spare.take(new Tables)
    val encoded = encode(b, tables)
    tables.clear()
    spare.give(tables)
    encoded
  }

  private def encode(b: Array[SparseRow], tables: Tables): LogicalEncoded = {
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
    // A node's child is its first child or in `children`; a new child
    // takes the first-child slot if it is free. Every match is ≥ 1 pair
    // long because phase I seeded every pair, so the codes overwrite
    // `pairNodes` behind the pairs still to be read.
    val children = tables.children
    var nextNode = firstLayer.size + 1
    var firstChild = tables.firstChildFor(nextNode)
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
          val first = firstChild(n)
          if (first == 0) { firstChild(n) = key(pair, nextNode); nextNode += 1; matching = false }
          else if ((first >>> 32).toInt == pair) { n = first.toInt; j += 1 }
          else {
            val child = children.putIfAbsent(key(n, pair), nextNode)
            if (child != 0) { n = child; j += 1 }
            else { nextNode += 1; matching = false }
          }
        }
        if (nextNode > firstChild.length) firstChild = tables.firstChildFor(nextNode)
        pairNodes(numTokens) = n
        numTokens += 1
      }
      r += 1
    }
    tables.nodes = nextNode
    LogicalEncoded(FirstLayer(iCols.result(), iValIdx.result(), values.dict),
      java.util.Arrays.copyOf(pairNodes, numTokens), rowStarts)
  }
}
