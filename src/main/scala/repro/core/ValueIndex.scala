package repro.core

import scala.collection.mutable

/** Value indexing (§3.2): replace each value by its index in a dictionary
  * of the distinct values, in first-occurrence order. Values are keyed on
  * their raw bits, so `-0.0` stays apart from `0.0` and a NaN decodes to
  * the same bits.
  */
object ValueIndex {
  /** `(dictionary, index of each value)`. */
  def apply(values: Array[Double]): (Array[Double], Array[Int]) = {
    val ids = mutable.LongMap.empty[Int]
    val dict = Array.newBuilder[Double]
    val idx = new Array[Int](values.length)
    var k = 0
    while (k < values.length) {
      val bits = java.lang.Double.doubleToRawLongBits(values(k))
      idx(k) = ids.getOrElse(bits, -1)
      if (idx(k) < 0) { idx(k) = ids.size; ids(bits) = idx(k); dict += values(k) }
      k += 1
    }
    (dict.result(), idx)
  }
}
