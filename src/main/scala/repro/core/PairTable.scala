package repro.core

/** A map from §3.1's pairs, each keyed on its column and the raw bits of
  * its value, to positive `Int` values: Algorithm 1's first layer, where a
  * pair's node is one probe and equal pairs (NaN included) always share a
  * node, and [[ValueIndex]]'s value ids, keyed on a value's bits under
  * column 0.
  *
  * Open addressing with linear probing. A key's home slot is the high bits
  * of the Fibonacci product (`× 2^64/φ`) of its bits mixed with its
  * column, so every key bit counts: keys that agree in their low 32 bits
  * still spread. A slot whose value is 0 is empty, which is why values
  * must be ≥ 1. The table doubles when it is more than half full, and
  * [[clear]] keeps the capacity it reached. A slot is two adjacent longs,
  * the bits and then `column << 32 | value`, so a probe reads one cache
  * line.
  */
final class PairTable {
  private var slots = new Array[Long](2 * 16)
  private var shift = 64 - 4 // 64 − log2(slots)
  private var used = 0

  /** Number of keys stored. */
  def size: Int = used

  /** Removes every key but keeps the slots, so a table refilled to the
    * size it had probes memory it has already touched and does not grow.
    * Only each slot's second long is zeroed: a slot whose value is 0 is
    * empty, and its stale bits are never read.
    */
  def clear(): Unit = {
    var s = 1
    while (s < slots.length) { slots(s) = 0L; s += 2 }
    used = 0
  }

  /** The first of slot `home`'s two longs. */
  @inline private def home(col: Int, bits: Long): Int =
    (((bits ^ (col * 0xC2B2AE3D27D4EB4FL)) * 0x9E3779B97F4A7C15L) >>> shift).toInt << 1

  /** The value stored under (`col`, `bits`); if there is none, stores
    * `value` (≥ 1) there and returns 0.
    */
  def putIfAbsent(col: Int, bits: Long, value: Int): Int = {
    val mask = slots.length - 1
    val colWord = col.toLong << 32
    var s = home(col, bits)
    var tail = slots(s + 1)
    while (tail != 0 && (slots(s) != bits || (tail & 0xFFFFFFFF00000000L) != colWord)) {
      s = (s + 2) & mask
      tail = slots(s + 1)
    }
    if (tail == 0) {
      slots(s) = bits
      slots(s + 1) = colWord | value
      used += 1
      if (4 * used > slots.length) grow()
    }
    tail.toInt
  }

  private def grow(): Unit = {
    val old = slots
    slots = new Array[Long](2 * old.length)
    shift -= 1
    val mask = slots.length - 1
    var k = 0
    while (k < old.length) {
      val tail = old(k + 1)
      if (tail != 0) {
        var s = home((tail >>> 32).toInt, old(k))
        while (slots(s + 1) != 0) s = (s + 2) & mask
        slots(s) = old(k)
        slots(s + 1) = tail
      }
      k += 2
    }
  }
}
