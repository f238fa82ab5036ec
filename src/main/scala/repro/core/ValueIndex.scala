package repro.core

/** Value indexing (§3.2): replace each value by its index in a dictionary
  * of the distinct values, in first-occurrence order. Values are keyed on
  * their raw bits, so `-0.0` stays apart from `0.0` and a NaN decodes to
  * the same bits.
  */
object ValueIndex {
  /** `(dictionary, index of each value)`. */
  def apply(values: Array[Double]): (Array[Double], Array[Int]) = {
    val ids = new LongIntTable // index + 1
    val dict = Array.newBuilder[Double]
    val idx = new Array[Int](values.length)
    var k = 0
    while (k < values.length) {
      idx(k) = ids.putIfAbsent(java.lang.Double.doubleToRawLongBits(values(k)), ids.size + 1) - 1
      if (idx(k) < 0) { idx(k) = ids.size - 1; dict += values(k) }
      k += 1
    }
    (dict.result(), idx)
  }
}
