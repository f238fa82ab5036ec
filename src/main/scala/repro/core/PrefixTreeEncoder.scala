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
  * The tree is one table from (parent node, pair) to child node, the
  * classic LZW dictionary (Welch, IEEE Computer 1984), one
  * [[LongIntTable]] probe per lookup-or-insert. Pairs are keyed on their
  * column and the raw bits of their value, so equal pairs always share a
  * node, NaN included.
  *
  * The tables outlive a call: one [[Spare]] set per JVM is reused, so a
  * batch probes slots already grown to a batch's size instead of doubling
  * fresh tables from 16 slots and leaving them as garbage. A call clears
  * its set before giving it back.
  */
object PrefixTreeEncoder {

  /** The tables of one encode: value ids, first-layer nodes and the
    * (node, pair) → child dictionary.
    */
  private final class Tables {
    val values, firstLayer, children = new LongIntTable
    def clear(): Unit = { values.clear(); firstLayer.clear(); children.clear() }
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
    // occurrence is also its pair's, so numbering values as they come
    // gives `I`'s value index (§3.2) in the dictionary's order.
    val values = new ValueIndex(tables.values)
    val firstLayer = tables.firstLayer
    val iCols, iValIdx = Array.newBuilder[Int]
    val pairNodes = new Array[Int](b.foldLeft(0)(_ + _.length))
    var p = 0
    var r = 0
    while (r < b.length) {
      val t = b(r)
      var j = 0
      while (j < t.length) {
        val v = values(t.vals(j))
        var n = firstLayer.putIfAbsent(key(t.cols(j), v), firstLayer.size + 1)
        if (n == 0) { n = firstLayer.size; iCols += t.cols(j); iValIdx += v }
        pairNodes(p) = n
        p += 1
        j += 1
      }
      r += 1
    }

    // Phase II: LongestMatchFromTree from each pair, AddNode(match, next
    // pair) where the match stops inside the tuple, then emit the match.
    // Every match is ≥ 1 pair long because phase I seeded every pair, so
    // the codes overwrite `pairNodes` behind the pairs still to be read.
    val children = tables.children
    var nextNode = firstLayer.size + 1
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
          val child = children.putIfAbsent(key(n, pairNodes(j)), nextNode)
          if (child != 0) { n = child; j += 1 }
          else { nextNode += 1; matching = false }
        }
        pairNodes(numTokens) = n
        numTokens += 1
      }
      r += 1
    }
    LogicalEncoded(FirstLayer(iCols.result(), iValIdx.result(), values.dict),
      java.util.Arrays.copyOf(pairNodes, numTokens), rowStarts)
  }
}
