package repro.core

/** Value indexing (§3.2): replace each value by its index in a dictionary
  * of the distinct values, in first-occurrence order. Values are keyed on
  * their raw bits, so `-0.0` stays apart from `0.0` and a NaN decodes to
  * the same bits.
  *
  * `ids` (index + 1 per value's bits, under column 0) must start empty;
  * Algorithm 1 passes a cleared table it reuses across batches.
  */
final class ValueIndex(ids: PairTable) {
  def this() = this(new PairTable)

  private val values = Array.newBuilder[Double]

  /** The index of `v`, the next free one if `v` is new. */
  def apply(v: Double): Int = {
    val id = ids.putIfAbsent(0, java.lang.Double.doubleToRawLongBits(v), ids.size + 1)
    if (id > 0) id - 1 else { values += v; ids.size - 1 }
  }

  /** The distinct values indexed so far, in first-occurrence order. */
  def dict: Array[Double] = values.result()
}

object ValueIndex {
  /** `(dictionary, index of each value)`. */
  def apply(values: Array[Double]): (Array[Double], Array[Int]) = {
    val index = new ValueIndex
    val idx = new Array[Int](values.length)
    for (k <- values.indices) idx(k) = index(values(k))
    (index.dict, idx)
  }
}
