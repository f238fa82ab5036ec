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

  /** [[BitPacking]]'s layout: `int32 count | int8 width | count * width bytes`. */
  def packed(a: Array[Int]): ByteWriter = {
    val width = BitPacking.width(a)
    buf.putInt(a.length).put(width.toByte)
    var i = 0
    while (i < a.length) {
      val v = a(i)
      width match {
        case 1 => buf.put(v.toByte)
        case 2 => buf.putShort(v.toShort)
        case 3 => buf.putShort(v.toShort).put((v >>> 16).toByte)
        case _ => buf.putInt(v)
      }
      i += 1
    }
    this
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
    var i = 0
    while (i < n) {
      out(i) = width match {
        case 1 => buf.get() & 0xff
        case 2 => buf.getShort() & 0xffff
        case 3 => (buf.getShort() & 0xffff) | ((buf.get() & 0xff) << 16)
        case _ => buf.getInt()
      }
      i += 1
    }
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

  private def inRange(a: Array[Int], max: Int, what: String): Array[Int] = {
    var bad = false
    var i = 0
    while (i < a.length) { bad |= a(i) < 0 || a(i) > max; i += 1 }
    CorruptBatchException.check(!bad, s"$what: value out of 0..$max")
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
