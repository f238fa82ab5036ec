package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `parent` is the id of the span that was
  * open when this one started (-1 at top level); `epoch` and `batch` name
  * the timed round and mini-batch it belongs to (-1 where none applies).
  */
final case class Span(id: Int, name: String, tag: String, startNs: Long, endNs: Long,
                      parent: Int, epoch: Int, batch: Int) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** A count or ratio taken at a layer boundary, attached to the span that
  * was open when it was taken.
  */
final case class Count(name: String, tag: String, value: Double, span: Int, epoch: Int, batch: Int)

/** Span and count recorder for the traced run. Everything stays in memory
  * until the run ends. A disabled tracer runs each body and records nothing,
  * so the untraced run pays only a branch per call.
  *
  * Recording is thread-safe; span nesting is tracked per thread.
  */
final class Tracer(val enabled: Boolean) {
  private val spanBuf = ArrayBuffer.empty[Span]
  private val countBuf = ArrayBuffer.empty[Count]
  private val open = ThreadLocal.withInitial[List[Int]](() => Nil)
  @volatile var epoch: Int = -1
  @volatile var batch: Int = -1

  /** Id of the innermost open span on this thread, or -1. */
  def current: Int = open.get.headOption.getOrElse(-1)

  def span[A](name: String, tag: String = "")(body: => A): A =
    if (!enabled) body
    else {
      val id = reserve()
      val parent = current
      open.set(id :: open.get)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open.set(open.get.tail)
        spanBuf.synchronized { spanBuf(id) = Span(id, name, tag, t0, t1, parent, epoch, batch) }
      }
    }

  /** Record a span whose interval was measured elsewhere (Spark listener). */
  def addSpan(name: String, tag: String, startNs: Long, endNs: Long, parent: Int): Int =
    if (!enabled) -1
    else {
      val id = reserve()
      spanBuf.synchronized { spanBuf(id) = Span(id, name, tag, startNs, endNs, parent, epoch, batch) }
      id
    }

  def count(name: String, tag: String, value: Double, span: Int = current): Unit =
    if (enabled) countBuf.synchronized { countBuf += Count(name, tag, value, span, epoch, batch) }

  private def reserve(): Int = spanBuf.synchronized { spanBuf += null; spanBuf.length - 1 }

  def spans: Seq[Span] = spanBuf.synchronized(spanBuf.filter(_ != null).toSeq)
  def counts: Seq[Count] = countBuf.synchronized(countBuf.toSeq)
}

/** Summary of one per-layer metric: median plus the highest percentile that
  * still has at least ten samples beyond it.
  */
final case class Summary(n: Int, median: Double, tailPct: Option[Double], tail: Option[Double])

object Stats {
  private val Ladder = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  /** Nearest-rank percentile of sorted samples. */
  private def pct(sorted: Array[Double], p: Double): Double =
    sorted(math.max(0, math.ceil(p / 100 * sorted.length).toInt - 1))

  def median(xs: Iterable[Double]): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "median of no samples")
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def mean(xs: Iterable[Double]): Double = xs.sum / xs.size

  /** Mean of the highest tenth of the samples (at least one). Other load
    * on a shared machine slows rounds at random and never speeds them up,
    * so the fastest rounds track the program's own cost most steadily.
    */
  def fastTenthMean(xs: Iterable[Double]): Double = {
    val s = xs.toArray.sorted
    mean(s.takeRight(math.max(1, s.length / 10)))
  }

  def summarize(xs: Iterable[Double], useMean: Boolean = false): Summary = {
    val s = xs.toArray.sorted
    val n = s.length
    val tailP = Ladder.find(p => n - math.ceil(p / 100 * n) >= 10)
    Summary(n, if (useMean) mean(s) else median(s), tailP, tailP.map(pct(s, _)))
  }

  /** Per-layer metrics derived from a trace. A span named `x` with tag `t`
    * yields `x_ms.t` (`x_ms` when untagged); a count yields `name.tag`.
    * Steps listed in `selfTimed` also yield their self time: duration minus
    * the time their direct child spans cover. Counts whose name ends in
    * `_frac` are 0/1 indicators, summarised by their mean.
    */
  def derive(spans: Seq[Span], counts: Seq[Count], selfTimed: Map[String, String]): Map[String, Summary] = {
    def key(name: String, tag: String) = if (tag.isEmpty) name else s"$name.$tag"
    val childMs = spans.filter(_.parent >= 0).groupMapReduce(_.parent)(_.ms)(_ + _)
    val fromSpans = spans.groupBy(s => key(s.name + "_ms", s.tag)).map { case (k, ss) => k -> ss.map(_.ms) }
    val selfSpans = spans.filter(s => selfTimed.contains(s.name))
      .groupBy(s => key(selfTimed(s.name) + "_ms", s.tag))
      .map { case (k, ss) => k -> ss.map(s => s.ms - childMs.getOrElse(s.id, 0.0)) }
    val fromCounts = counts.groupBy(c => key(c.name, c.tag)).map { case (k, cs) => k -> cs.map(_.value) }
    (fromSpans ++ selfSpans).map { case (k, v) => k -> summarize(v) } ++
      fromCounts.map { case (k, v) => k -> summarize(v, useMean = k.split('.').exists(_.endsWith("_frac"))) }
  }
}

/** JVM-wide meters read at round boundaries. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Time the JIT compilers have spent so far, in ms. */
  def jitMs: Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** Collection time summed over all collectors, in ms. */
  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Bytes allocated so far by the calling thread. */
  def threadAllocated: Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated so far by every live thread (Spark task threads too). */
  def allAllocated: Long = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  /** Heap still in use after forced collections, in MiB. */
  def liveHeapMb: Double = {
    var i = 0
    while (i < 3) { System.gc(); Thread.sleep(50); i += 1 }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
