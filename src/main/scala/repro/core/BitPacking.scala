package repro.core

/** Byte-aligned bit packing of non-negative integer arrays (§3.2).
  *
  * Per the paper, each integer in an array is stored in
  * `ceil(log2(max+1) / 8)` bytes (1–4); a header records the element count
  * and the per-element width. There is no native `uint_24` (§4.1.1), so a
  * 3-byte element is read as three bytes into an `Int`.
  *
  * Layout (little-endian): `[count: int32][width: int8][payload: count*width]`,
  * written by [[ByteWriter.packed]] and read by [[ByteReader.packed]].
  */
object BitPacking {
  /** Bytes needed per element to represent values up to `maxValue`. */
  def bytesPerInt(maxValue: Int): Int = {
    require(maxValue >= 0, s"negative value $maxValue not packable")
    if (maxValue < (1 << 8)) 1
    else if (maxValue < (1 << 16)) 2
    else if (maxValue < (1 << 24)) 3
    else 4
  }

  /** Bytes per element of `values`; rejects a negative element, which
    * no width can hold.
    */
  def width(values: Array[Int]): Int = {
    var min = 0; var max = 0
    var i = 0
    while (i < values.length) {
      val v = values(i)
      if (v < min) min = v
      if (v > max) max = v
      i += 1
    }
    require(min >= 0, s"negative value $min not packable")
    bytesPerInt(max)
  }

  /** Exact serialized size of `count` elements of `width` bytes, header included. */
  def packedSize(count: Int, width: Int): Int = 5 + count * width
}
