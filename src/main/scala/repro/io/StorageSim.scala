package repro.io

/** Storage simulator standing in for the paper's 15 GB-RAM cloud machine
  * (DESIGN.md §4).
  *
  * The paper's large-dataset results (Tables 6/7, Figure 1A/D) hinge on
  * one mechanism: if a dataset's *encoded* size exceeds RAM, every epoch
  * re-reads it from disk, and that IO dominates. We model exactly that:
  * given the measured encoded size `S`, a memory budget `B`, and a disk
  * bandwidth `β`,
  *
  *  - `S ≤ B`: the data is loaded once (`S/β` seconds, amortized over all
  *    epochs) and every subsequent epoch is IO-free;
  *  - `S > B`: every epoch streams the full `S` bytes (`S/β` per epoch) —
  *    the standard no-reuse model for a scan-ordered working set larger
  *    than the buffer pool (each batch is evicted before its next visit).
  *
  * Modeled IO is reported separately from measured compute everywhere.
  */
final case class StorageSim(memoryBudgetBytes: Long, diskBandwidthBytesPerSec: Double) {
  require(memoryBudgetBytes > 0 && diskBandwidthBytesPerSec > 0)

  /** Does a dataset with this encoded size fit in the memory budget? */
  def fits(encodedBytes: Long): Boolean = encodedBytes <= memoryBudgetBytes

  /** Seconds of IO charged for the one-time initial load. */
  def initialLoadSeconds(encodedBytes: Long): Double =
    encodedBytes / diskBandwidthBytesPerSec

  /** Seconds of IO charged per training epoch. */
  def perEpochIoSeconds(encodedBytes: Long): Double =
    if (fits(encodedBytes)) 0.0 else encodedBytes / diskBandwidthBytesPerSec

  /** Total modeled IO seconds for an `epochs`-epoch training run. */
  def totalIoSeconds(encodedBytes: Long, epochs: Int): Double =
    initialLoadSeconds(encodedBytes) + epochs * perEpochIoSeconds(encodedBytes)
}
