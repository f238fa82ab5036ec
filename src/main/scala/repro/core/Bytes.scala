package repro.core

import java.nio.{ByteBuffer, ByteOrder}

/** Bytes that do not parse as the encoding they claim to be. Mini-batch
  * bytes come from outside the program (Spark rows, files), so every
  * parser checks each count and index before it allocates or uses it, and
  * throws this instead of an out-of-memory error, a bad index or a hang.
  */
final class CorruptBatchException(msg: String) extends IllegalArgumentException(msg)

object CorruptBatchException {
  def check(ok: Boolean, what: => String): Unit = if (!ok) throw new CorruptBatchException(what)
}

/** Little-endian writer of an encoding's bytes into a buffer of the
  * format's exact length (the matrix's `sizeBytes`).
  */
final class ByteWriter(size: Long) {
  private val buf = ByteBuffer.allocate(Math.toIntExact(size)).order(ByteOrder.LITTLE_ENDIAN)

  def int(v: Int): ByteWriter = { buf.putInt(v); this }
  def ints(a: Array[Int]): ByteWriter = { buf.asIntBuffer.put(a); skip(4 * a.length) }
  def doubles(a: Array[Double]): ByteWriter = { buf.asDoubleBuffer.put(a); skip(8 * a.length) }
  def bytes(a: Array[Byte]): ByteWriter = { buf.put(a); this }

  /** [[BitPacking]]'s layout: `int32 count | int8 width | count * width
    * bytes`, where `width` must be `BitPacking.width(a)`. Each width has
    * its own loop over the backing array.
    */
  def packed(a: Array[Int], width: Int): ByteWriter = {
    buf.putInt(a.length).put(width.toByte)
    if (width == 4) ints(a)
    else {
      val out = buf.array
      var o = buf.position
      var i = 0
      width match {
        case 1 =>
          while (i < a.length) { out(o) = a(i).toByte; o += 1; i += 1 }
        case 2 =>
          while (i < a.length) { val v = a(i); out(o) = v.toByte; out(o + 1) = (v >>> 8).toByte; o += 2; i += 1 }
        case _ =>
          while (i < a.length) {
            val v = a(i); out(o) = v.toByte; out(o + 1) = (v >>> 8).toByte; out(o + 2) = (v >>> 16).toByte
            o += 3; i += 1
          }
      }
      buf.position(o)
      this
    }
  }

  def result: Array[Byte] = {
    require(!buf.hasRemaining, s"${buf.remaining} of $size bytes not written")
    buf.array
  }

  private def skip(n: Int): ByteWriter = { buf.position(buf.position + n); this }
}

/** Little-endian reader of an encoding's bytes. Each read checks that
  * what it allocates fits in the bytes left, and [[end]] rejects trailing
  * bytes, so a malformed buffer fails with a [[CorruptBatchException]].
  */
final class ByteReader(bytes: Array[Byte]) {
  private val buf = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)

  /** `n` as an Int, if `n` items of `width` bytes fit in the bytes left. */
  private def fits(n: Long, width: Int, what: String): Int = {
    CorruptBatchException.check(n >= 0 && n <= Int.MaxValue && n * width <= buf.remaining,
      s"$what: $n x $width bytes claimed, ${buf.remaining} left")
    n.toInt
  }

  /** A non-negative int32 count of items that each take `width` more bytes. */
  def count(width: Int = 0): Int = {
    fits(1, 4, "count")
    fits(buf.getInt(), width, "count")
  }

  /** The `int32 numRows | int32 numCols` header every format starts with,
    * where each column takes `colWidth` more bytes and, if `cells`, the
    * bytes hold every cell, compressed or not. A decoded batch and every
    * op's output must fit an array, so rows × cols (a 0 counting as 1) is
    * at most `Int.MaxValue / 8` float64s. `A·v` allocates the row count and
    * `v·A` the column count, so a count no bytes pay for may be at most
    * [[ByteReader.MaxUnpaid]]: the rows of a 0-column batch (DEN, DVI, CLA,
    * Gzip and Snappy carry no bytes per row), and the columns of a batch
    * with neither `colWidth` nor, at 1 row or more, `cells` (TOC, CSR and
    * CVI at any row count, every format but CLA at 0 rows).
    */
  def shape(colWidth: Int = 0, cells: Boolean = false): (Int, Int) = {
    val rows = count(); val cols = count(colWidth)
    CorruptBatchException.check(math.max(rows, 1).toLong * math.max(cols, 1) <= Int.MaxValue / 8,
      s"$rows x $cols does not fit an array")
    CorruptBatchException.check(cols > 0 || rows <= ByteReader.MaxUnpaid,
      s"$rows rows of 0 columns, more than ${ByteReader.MaxUnpaid}")
    CorruptBatchException.check(colWidth > 0 || cells && rows > 0 || cols <= ByteReader.MaxUnpaid,
      s"$cols columns that no bytes pay for, more than ${ByteReader.MaxUnpaid}")
    (rows, cols)
  }

  def doubles(n: Long): Array[Double] = {
    val out = new Array[Double](fits(n, 8, "float64s"))
    buf.asDoubleBuffer.get(out)
    skip(8 * out.length)
    out
  }

  /** `n` int32s, each in `0..max`. */
  def ints(n: Long, max: Int = Int.MaxValue): Array[Int] = {
    val out = new Array[Int](fits(n, 4, "int32s"))
    buf.asIntBuffer.get(out)
    skip(4 * out.length)
    inRange(out, max, "int32s")
  }

  /** A [[BitPacking]] array whose values are each in `0..max`. */
  def packed(max: Int = Int.MaxValue): Array[Int] = {
    val n = count()
    fits(1, 1, "pack width")
    val width = buf.get().toInt
    CorruptBatchException.check(width >= 1 && width <= 4, s"bad pack width $width")
    val out = new Array[Int](fits(n, width, "packed ints"))
    if (width == 4) buf.asIntBuffer.get(out)
    else {
      var o = buf.position
      var i = 0
      width match {
        case 1 =>
          while (i < n) { out(i) = bytes(o) & 0xff; o += 1; i += 1 }
        case 2 =>
          while (i < n) { out(i) = (bytes(o) & 0xff) | (bytes(o + 1) & 0xff) << 8; o += 2; i += 1 }
        case _ =>
          while (i < n) {
            out(i) = (bytes(o) & 0xff) | (bytes(o + 1) & 0xff) << 8 | (bytes(o + 2) & 0xff) << 16
            o += 3; i += 1
          }
      }
    }
    skip(width * n)
    inRange(out, max, "packed ints")
  }

  /** All bytes left. */
  def rest(): Array[Byte] = {
    val out = new Array[Byte](buf.remaining)
    buf.get(out)
    out
  }

  def end(): Unit = CorruptBatchException.check(!buf.hasRemaining, s"${buf.remaining} trailing bytes")

  private def skip(n: Int): Unit = buf.position(buf.position + n)

  /** `a`, if each value is in `0..max` (`max` ≥ -1). Branch-free: `v` and
    * `max - v` are both non-negative exactly when `v` is in range, so the
    * sign bit of their OR over `a` marks a value out of it.
    */
  private def inRange(a: Array[Int], max: Int, what: String): Array[Int] = {
    var bad = 0
    var i = 0
    while (i < a.length) { val v = a(i); bad |= v | (max - v); i += 1 }
    CorruptBatchException.check(bad >= 0, s"$what: value out of 0..$max")
    a
  }
}

object ByteReader {
  /** The most rows or columns a header may claim that its bytes do not
    * pay for: far above any mini-batch the program builds (250 rows) and
    * any dataset's width (rcv1's 47 236 columns), and `A·v` or `v·A` on
    * such a batch allocates at most 512 KiB.
    */
  val MaxUnpaid: Int = 1 << 16

  /** Row offsets (CSR's `rowPtr`, TOC's `rowStarts`) start at 0 and never decrease. */
  def checkOffsets(starts: Array[Int], what: String): Unit = {
    var ok = starts.isEmpty || starts(0) == 0
    var i = 1
    while (i < starts.length) { ok &= starts(i - 1) <= starts(i); i += 1 }
    CorruptBatchException.check(ok, s"$what: offsets do not start at 0 and ascend")
  }
}
