package repro.core

import repro.linalg.DenseMatrix

/** A column_index:value pair, the compression unit of TOC (§3), as the
  * paper's tables write it. Also the sparse representation of a
  * length-`numCols` vector with a single non-zero, which is how Theorems
  * 1–4 treat `C'[i].key`.
  */
final case class ColValue(col: Int, value: Double)

/** Test-side views of TOC's structures that the kernels never build: `B`
  * and `I` as pairs, `D` as per-tuple code rows, the paper's full `C'`,
  * `C'` keys and node sequences, and the pair-level reference decoders.
  */
object TocViews {

  /** A table of pairs as the [[SparseRow]]s Algorithm 1 encodes. */
  def sparse(b: Array[Array[ColValue]]): Array[SparseRow] =
    b.map(t => SparseRow(t.map(_.col), t.map(_.value)))

  implicit final class SparseRowView(private val t: SparseRow) extends AnyVal {
    /** The tuple's pairs. */
    def pairs: Array[ColValue] = Array.tabulate(t.length)(j => ColValue(t.cols(j), t.vals(j)))
  }

  implicit final class FirstLayerView(private val i: FirstLayer) extends AnyVal {
    /** `I` as pairs (the first tree layer's keys). */
    def pairs: Array[ColValue] = Array.tabulate(i.length)(k => ColValue(i.cols(k), i.dict(i.valIdx(k))))
  }

  /** `D` split back into per-tuple code rows. */
  def codeRows(tokens: Array[Int], rowStarts: Array[Int]): Array[Array[Int]] =
    Array.tabulate(rowStarts.length) { r =>
      val to = if (r + 1 < rowStarts.length) rowStarts(r + 1) else tokens.length
      java.util.Arrays.copyOfRange(tokens, rowStarts(r), to)
    }

  implicit final class LogicalView(private val enc: LogicalEncoded) extends AnyVal {
    /** The logical `D` (per-tuple code vectors). */
    def d: Array[Array[Int]] = codeRows(enc.tokens, enc.rowStarts)
  }

  implicit final class PhysicalView(private val p: TocPhysical) extends AnyVal {
    /** Reconstruct the logical `I` (pairs of the first tree layer). */
    def iPairs: Array[ColValue] =
      Array.tabulate(p.iCols.length)(k => ColValue(p.iCols(k), p.dict(p.iValIdx(k))))

    /** Reconstruct the logical `D` (per-tuple code vectors). */
    def dRows: Array[Array[Int]] = codeRows(p.tokens, p.rowStarts)
  }

  implicit final class TreeView(private val c: DecodeTree) extends AnyVal {
    /** Key of node `i` as a pair (null for the root). */
    def key(i: Int): ColValue = if (i == 0) null else ColValue(c.keyCols(i), c.keyVals(i))

    /** All keys, root first (as null). */
    def keys: Array[ColValue] = Array.tabulate(c.size)(key)

    /** Parent index of node `i` (-1 for the root). */
    def parent(i: Int): Int = c.parents(i)

    /** Sequence represented by node `i`, root→node order (§3.1.1 `seq`). */
    def sequence(i: Int): List[ColValue] = {
      var cur = i
      var acc = List.empty[ColValue]
      while (cur != 0) { acc = key(cur) :: acc; cur = c.parents(cur) }
      acc
    }
  }

  /** The paper's full `C'` (Algorithm 2 verbatim), the reference for the
    * Table 2/4 reproductions and for the kept tree main builds
    * ([[DecodeTree.buildFromPhysical]]). Phase I seeds nodes `1..len(I)`
    * from `I`; phase II replays the encoder over `D` — for every code
    * except a tuple's last, a node is created whose parent is that code
    * and whose key is the *first* pair of the next code's sequence.
    * `first` holds each node's first-layer node; `first(new)` is written
    * before `first(next)` is read so the LZW self-reference case resolves.
    * Its `codes` are `D` itself, as the full tree numbers every node.
    */
  def referenceTree(p: TocPhysical): DecodeTree = {
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

    var k = 1
    while (k <= iLen) {
      keyCols(k) = p.iCols(k - 1); keyVals(k) = p.dict(p.iValIdx(k - 1))
      first(k) = k
      k += 1
    }

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
    new DecodeTree(keyCols, keyVals, parents, tokens, rowStarts :+ tokens.length)
  }

  /** The physical arrays of the logical outputs. */
  def physical(enc: LogicalEncoded): TocPhysical = {
    val numCols = enc.i.cols.foldLeft(0)((n, c) => n max (c + 1))
    TocPhysical.encode(enc.rowStarts.length, numCols, enc)
  }

  /** The paper's `C'` (Algorithm 2) built from the logical outputs. */
  def tree(enc: LogicalEncoded): DecodeTree = referenceTree(physical(enc))

  /** Decode (`I`, `D`) back to the sparse table by expanding each token
    * through the paper's `C'`'s parent chains.
    */
  def decode(enc: LogicalEncoded): Array[Array[ColValue]] = {
    val c = tree(enc)
    enc.d.map(_.flatMap(c.sequence))
  }

  /** Decode §3's sparse table `B` back to `A` given the column count. */
  def decodeSparse(b: Array[SparseRow], cols: Int): DenseMatrix = {
    val m = DenseMatrix.zeros(b.length, cols)
    var i = 0
    while (i < b.length) {
      b(i).pairs.foreach(cv => m(i, cv.col) = cv.value)
      i += 1
    }
    m
  }
}
