package repro.core

import repro.linalg.DenseMatrix

/** A column_index:value pair, the compression unit of TOC (§3), as the
  * paper's tables write it. Also the sparse representation of a
  * length-`numCols` vector with a single non-zero, which is how Theorems
  * 1–4 treat `C'[i].key`.
  */
final case class ColValue(col: Int, value: Double)

/** Test-side views of TOC's structures that the kernels never build: `B`
  * and `I` as pairs, `D` as per-tuple code rows, `C'` keys and node
  * sequences, and the pair-level reference decoders.
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

  /** `C'` (Algorithm 2) built from the logical outputs. */
  def tree(enc: LogicalEncoded): DecodeTree = {
    val numCols = enc.i.cols.foldLeft(0)((n, c) => n max (c + 1))
    DecodeTree.buildFromPhysical(TocPhysical.encode(enc.rowStarts.length, numCols, enc))
  }

  /** Decode (`I`, `D`) back to the sparse table by expanding each token
    * through `C'`'s parent chains.
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
