package repro.core

/** §3.2 physical encoding: the on-disk / in-memory byte layout of a TOC
  * compressed mini-batch.
  *
  * `I` is split into a bit-packed column-index array and a value-indexed
  * (dictionary-coded) value array whose indexes are bit-packed; `D` is
  * the concatenation of all tuples' codes, bit-packed, plus bit-packed
  * tuple starting offsets.
  *
  * Layout (little-endian):
  * {{{
  * int32 numRows | int32 numCols | int32 dictLen | dictLen * float64
  * | pack(I.cols) | pack(I.valueIdx) | pack(D.tokens) | pack(rowStarts)
  * }}}
  */
final case class TocPhysical(
    numRows: Int,
    numCols: Int,
    dict: Array[Double],      // distinct values, first-occurrence order
    iCols: Array[Int],        // column index of I[k]
    iValIdx: Array[Int],      // dictionary index of I[k]'s value
    tokens: Array[Int],       // D flattened row-by-row
    rowStarts: Array[Int]     // starting offset of each tuple in `tokens`
) {
  require(iCols.length == iValIdx.length)
  require(rowStarts.length == numRows)

  /** Exact size of the serialized form in bytes — the quantity used for
    * compression ratios (Figure 5 / §5.1).
    */
  def sizeBytes: Long = sizeBytes(widths)

  /** Serialize to the physical byte layout, finding each array's width once. */
  def toBytes: Array[Byte] = {
    val w = widths
    new ByteWriter(sizeBytes(w)).int(numRows).int(numCols).int(dict.length).doubles(dict)
      .packed(iCols, w(0)).packed(iValIdx, w(1)).packed(tokens, w(2)).packed(rowStarts, w(3)).result
  }

  /** The bit-packing widths of `iCols`, `iValIdx`, `tokens` and `rowStarts`. */
  private def widths: Array[Int] =
    Array(BitPacking.width(iCols), BitPacking.width(iValIdx), BitPacking.width(tokens), BitPacking.width(rowStarts))

  private def sizeBytes(w: Array[Int]): Long =
    4L + 4L + 4L + 8L * dict.length +
      BitPacking.packedSize(iCols.length, w(0)) + BitPacking.packedSize(iValIdx.length, w(1)) +
      BitPacking.packedSize(tokens.length, w(2)) + BitPacking.packedSize(rowStarts.length, w(3))
}

object TocPhysical {

  /** Physically encode logical outputs (`I`, `D`); Algorithm 1 value-indexed `I`. */
  def encode(numRows: Int, numCols: Int, enc: LogicalEncoded): TocPhysical =
    TocPhysical(numRows, numCols, enc.i.dict, enc.i.cols, enc.i.valIdx, enc.tokens, enc.rowStarts)

  /** Deserialize from the physical byte layout. The codes in `tokens`
    * are checked when `C'` is built ([[DecodeTree.buildFromPhysical]]).
    */
  def fromBytes(bytes: Array[Byte]): TocPhysical = {
    val r = new ByteReader(bytes)
    val (numRows, numCols) = r.shape()
    val dict = r.doubles(r.count())
    val iCols = r.packed(numCols - 1)
    val iValIdx = r.packed(dict.length - 1)
    val tokens = r.packed()
    val rowStarts = r.packed(tokens.length)
    r.end()
    CorruptBatchException.check(iValIdx.length == iCols.length && rowStarts.length == numRows,
      "TOC: I or rowStarts has the wrong length")
    ByteReader.checkOffsets(rowStarts, "TOC rowStarts")
    TocPhysical(numRows, numCols, dict, iCols, iValIdx, tokens, rowStarts)
  }
}
