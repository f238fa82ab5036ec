package repro.core

/** A map from `Long` keys to positive `Int` values in two primitive arrays,
  * for the write path's lookup-or-insert loops on one-long keys (value ids,
  * and Algorithm 1's (node, pair) → child map past a node's first child),
  * where each lookup-or-insert is one probe. Algorithm 1's first layer,
  * keyed on a column and a value's bits, is a [[PairTable]].
  *
  * Open addressing with linear probing. A key's home slot is the high bits
  * of its Fibonacci product (`key * 2^64/φ`), so all 64 key bits count:
  * keys that agree in their low 32 bits still spread. A slot whose value is
  * 0 is empty, which is why values must be ≥ 1. The table doubles when it
  * is more than half full, and [[clear]] keeps the capacity it reached.
  */
final class LongIntTable {
  private var keys = new Array[Long](16)
  private var values = new Array[Int](16)
  private var shift = 64 - 4 // 64 − log2(slots)
  private var used = 0

  /** Number of keys stored. */
  def size: Int = used

  /** Removes every key but keeps the slots, so a table refilled to the
    * size it had probes memory it has already touched and does not grow.
    * Only the values are zeroed: a slot whose value is 0 is empty, and its
    * stale key is never read.
    */
  def clear(): Unit = {
    java.util.Arrays.fill(values, 0)
    used = 0
  }

  @inline private def home(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt

  /** The value stored under `key`; if there is none, stores `value` (≥ 1)
    * there and returns 0.
    */
  def putIfAbsent(key: Long, value: Int): Int = {
    val mask = values.length - 1
    var s = home(key)
    while (values(s) != 0 && keys(s) != key) s = (s + 1) & mask
    val found = values(s)
    if (found == 0) {
      keys(s) = key
      values(s) = value
      used += 1
      if (2 * used > values.length) grow()
    }
    found
  }

  private def grow(): Unit = {
    val oldKeys = keys
    val oldValues = values
    keys = new Array[Long](2 * oldKeys.length)
    values = new Array[Int](2 * oldValues.length)
    shift -= 1
    val mask = values.length - 1
    var k = 0
    while (k < oldValues.length) {
      if (oldValues(k) != 0) {
        var s = home(oldKeys(k))
        while (values(s) != 0) s = (s + 1) & mask
        keys(s) = oldKeys(k)
        values(s) = oldValues(k)
      }
      k += 1
    }
  }
}
