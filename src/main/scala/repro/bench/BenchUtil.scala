package repro.bench

import repro.core.{TocEncoder, TocMatrix}
import repro.linalg.CompressedMatrix

/** Timing and table-formatting helpers shared by the per-table harnesses. */
object BenchUtil {

  /** Wall-clock seconds of one execution of `f`. */
  def timeSec[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** JIT-quiet warm-up windows: at least one, for at most `MaxWarmNs`. */
  private val WarmWindowNs = 200000000L
  private val MaxWarmNs = 2000000000L

  /** Median wall-clock seconds of `n` runs of `f`, timed once the JIT is
    * quiet. `f` first runs untimed until a 0.2 s window in which the JIT
    * compilers ran for under 5% of the window (or 2 s passed), the
    * rule the benchmark's `Run.warmUp` follows; so an op's number does not
    * depend on which ops ran before it.
    */
  def warmMedianSec(n: Int)(f: => Unit): Double = {
    val jit = java.lang.management.ManagementFactory.getCompilationMXBean
    val t0 = System.nanoTime()
    var windowStart = t0
    var jit0 = jit.getTotalCompilationTime
    var quiet = false
    while (!quiet && System.nanoTime() - t0 < MaxWarmNs) {
      f
      val now = System.nanoTime()
      if (now - windowStart >= WarmWindowNs) {
        val jitMs = jit.getTotalCompilationTime
        quiet = jitMs - jit0 < 0.05 * (now - windowStart) / 1e6
        windowStart = now
        jit0 = jitMs
      }
    }
    val times = Array.fill(n) {
      val t = System.nanoTime()
      f
      (System.nanoTime() - t) / 1e9
    }
    java.util.Arrays.sort(times)
    if (n % 2 == 1) times(n / 2) else (times(n / 2 - 1) + times(n / 2)) / 2
  }

  /** What a timed §5.2/§5.4 cell calls to get its operand `a`. TOC is
    * parsed from its bytes on every call, so each op pays the §4.1.1 parse
    * and the Algorithm 2 tree build, the paper's per-op accounting (the
    * in-memory object memoizes C′), as Gzip and Snappy pay inflation every
    * time; every other encoding is timed resident.
    */
  def timedOperand(a: CompressedMatrix): () => CompressedMatrix = a match {
    case toc: TocMatrix =>
      val bytes = toc.toBytes
      () => TocEncoder.fromBytes(bytes)
    case other => () => other
  }

  /** Render an aligned text table. */
  def renderTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def fmtBytes(b: Long): String =
    if (b >= (1L << 30)) f"${b / (1024.0 * 1024 * 1024)}%.2f GB"
    else if (b >= (1L << 20)) f"${b / (1024.0 * 1024)}%.2f MB"
    else if (b >= (1L << 10)) f"${b / 1024.0}%.2f KB"
    else s"$b B"

  def fmtSec(s: Double): String =
    if (s >= 100) f"$s%.0f s" else if (s >= 1) f"$s%.1f s" else f"${s * 1000}%.2f ms"

  /** Print a titled block to stdout (the benches' reporting channel). */
  def report(title: String, body: String): Unit = {
    println()
    println(s"=== $title ===")
    println(body)
    println()
  }
}
