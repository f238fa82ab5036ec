package repro.perfbench

import scala.collection.mutable.{ArrayBuffer, LinkedHashMap}
import scala.util.control.NonFatal
import repro.data.DatasetSpec

/** One workload of the benchmark. The timed phase calls `round` until its
  * time is up; each round reports the rows per second of the workload's
  * primary and secondary case. Correctness checks run outside timed regions.
  */
trait Workload {
  /** What the primary and secondary throughputs measure. */
  def primaryWhat: String
  def secondaryWhat: String

  /** Build the workload's inputs; `release` drops them again. The set-up is
    * repeated, so it must not depend on an earlier set-up.
    */
  def setUp(t: Tracer): Unit
  def release(): Unit

  def round(t: Tracer): (Double, Double)

  /** Extra per-layer measurements of the traced run, after the timed phase. */
  def replays: Boolean = false
  def replay(t: Tracer, seconds: Double): Unit = ()

  def check(): Unit

  /** TOC bytes over DEN bytes for the batches this workload holds. */
  def tocBytesPerDenseByte: Double

  /** Steps whose self time is reported, mapped to the self-time metric name. */
  def selfTimed: Map[String, String] = Map.empty

  def meta: Map[String, Any]
}

/** Inputs, correctness tally and results of one benchmark run. */
final class Run(val seed: Long, val seconds: Double, val traced: Boolean, val corrupt: Boolean) {
  val tracer = new Tracer(traced)
  val off = new Tracer(false)
  var attempted = 0L
  var failed = 0L
  val failures = ArrayBuffer.empty[String]
  val meta = LinkedHashMap.empty[String, Any]

  /** The analog re-drawn for this run's seed; seed 0 gives the repository's own analogs. */
  def analog(spec: DatasetSpec): DatasetSpec = spec.copy(seed = spec.seed + 7919L * seed)

  def fail(what: String): Unit = {
    failed += 1
    if (failures.size < 20) failures += what
  }

  /** One correctness check; a check that throws counts as failed too. */
  def check(what: => String)(ok: => Boolean): Unit = {
    attempted += 1
    try { if (!ok) fail(what) } catch { case NonFatal(e) => fail(s"$what: $e") }
  }

  /** One operation; if it throws, it counts as failed. */
  def attempt(what: => String)(body: => Unit): Unit = {
    attempted += 1
    try body catch { case NonFatal(e) => fail(s"$what: $e") }
  }

  /** Run the workload's set-up `reps` times and return the median seconds. */
  def setUp(w: Workload, reps: Int): Double = {
    val secs = (0 until reps).map { r =>
      if (r > 0) w.release()
      val t0 = System.nanoTime()
      w.setUp(tracer)
      (System.nanoTime() - t0) / 1e9
    }
    meta("setup_reps_s") = secs
    Stats.median(secs)
  }

  /** Untimed rounds until the JIT compiled for under 5% of the last
    * second, at least a tenth and at most half of the run's seconds, so
    * that lazy compilation finishes before timing. Returns the seconds spent.
    */
  def warmUp(w: Workload): Double = {
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    var windowStart = t0
    var jit0 = Jvm.jitMs
    var quiet = false
    while (elapsed < seconds / 10 || (!quiet && elapsed < seconds / 2)) {
      w.round(off)
      val now = System.nanoTime()
      if (now - windowStart >= 1000000000L) {
        quiet = (Jvm.jitMs - jit0) < 0.05 * (now - windowStart) / 1e6
        windowStart = now
        jit0 = Jvm.jitMs
      }
    }
    elapsed
  }

  /** Call `w.round` for `budgetS` seconds, cycling through `tracers` one
    * round each (at least three rounds per tracer), and return each
    * tracer's primary and secondary samples. A traced round also records
    * the collection time and the bytes allocated by every thread during it.
    */
  def rounds(w: Workload, budgetS: Double, tracers: Tracer*): Seq[(Seq[Double], Seq[Double])] = {
    val samples = tracers.map(_ => (ArrayBuffer.empty[Double], ArrayBuffer.empty[Double]))
    val deadline = System.nanoTime() + (budgetS * 1e9).toLong
    var r = 0
    while (r < 3 * tracers.size || System.nanoTime() < deadline) {
      val t = tracers(r % tracers.size)
      t.epoch = r
      val gc0 = if (t.enabled) Jvm.gcMs else 0L
      val alloc0 = if (t.enabled) Jvm.allAllocated else 0L
      val (p, s) = w.round(t)
      if (t.enabled) {
        t.count("jvm.gc_ms", "", (Jvm.gcMs - gc0).toDouble)
        t.count("jvm.alloc_mb", "", (Jvm.allAllocated - alloc0) / (1024.0 * 1024.0))
      }
      samples(r % tracers.size)._1 += p
      samples(r % tracers.size)._2 += s
      r += 1
    }
    tracers.foreach(_.epoch = -1)
    samples.map { case (p, s) => (p.toSeq, s.toSeq) }
  }
}

/** Reference comparisons used by the correctness checks. */
object Compare {
  /** Largest absolute difference relative to the reference's largest magnitude. */
  def relErr(got: Array[Double], ref: Array[Double]): Double = {
    if (got.length != ref.length) return Double.PositiveInfinity
    var diff = 0.0; var scale = 0.0
    var i = 0
    while (i < got.length) {
      diff = math.max(diff, math.abs(got(i) - ref(i)))
      scale = math.max(scale, math.abs(ref(i)))
      i += 1
    }
    if (diff == 0.0) 0.0 else if (diff.isNaN) Double.PositiveInfinity else diff / math.max(scale, Double.MinPositiveValue)
  }

  /** Bit-for-bit equality, so `-0.0` against `0.0` and NaN payloads count. */
  def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i =>
      java.lang.Double.doubleToRawLongBits(a(i)) == java.lang.Double.doubleToRawLongBits(b(i)))
}
