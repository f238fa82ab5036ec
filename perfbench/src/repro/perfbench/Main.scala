package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import scala.collection.mutable.LinkedHashMap

/** Benchmark entry point: one workload, one seed, one run.
  *
  * {{{
  * Main --workload encode|train-local|train-spark --seed N --seconds S
  *      --trace 0|1 --out RESULT.json [--corrupt 1]
  * }}}
  *
  * Every run sets the workload up five times (`setup_s` is the median),
  * then runs untimed warm-up rounds until the JIT is quiet, then the timed
  * phase. The untraced run (`--trace 0`) measures the end-to-end metrics
  * with no spans recorded. The traced run (`--trace 1`) alternates
  * untraced and traced rounds, for the tracing overhead, and spends a
  * third of its time on the workload's extra traced work
  * (`Workload.replay`), where it has some. It reports the per-layer
  * metrics derived from its spans and counts. Both runs check the
  * program's outputs after the timed phase. `--corrupt 1` flips one bit of
  * an encoded batch before the checks, to show that they catch it.
  */
object Main {
  val Workloads = Seq("encode", "train-local", "train-spark")
  private val SetupReps = 5

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, sys.error(s"missing --$k"))
    val workload = opt("workload")
    require(Workloads.contains(workload), s"unknown workload '$workload'; known: ${Workloads.mkString(", ")}")
    val run = new Run(opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1",
      opts.get("corrupt").contains("1"))
    val w: Workload = workload match {
      case "encode" => new EncodeBench(run)
      case "train-local" => new LocalTrainBench(run)
      case "train-spark" => new SparkTrainBench(run)
    }

    val e2e = LinkedHashMap.empty[String, Double]
    try {
      val setupS = run.setUp(w, SetupReps)
      run.meta("warmup_s") = run.warmUp(w)
      if (!run.traced) {
        val Seq((p, s)) = run.rounds(w, run.seconds, run.off)
        e2e("setup_s") = setupS
        e2e("primary_rows_per_s") = Stats.fastTenthMean(p)
        e2e("secondary_rows_per_s") = Stats.fastTenthMean(s)
        e2e("live_heap_mb") = Jvm.liveHeapMb
        run.meta("rounds") = p.size
        run.meta("median_rows_per_s") = Map("primary" -> Stats.median(p), "secondary" -> Stats.median(s))
        run.meta("samples") = Map("primary" -> p, "secondary" -> s)
      } else {
        val replayS = if (w.replays) run.seconds / 3 else 0.0
        val Seq((pOff, _), (pOn, _)) = run.rounds(w, run.seconds - replayS, run.off, run.tracer)
        run.tracer.count("trace.overhead_pct", "", (Stats.fastTenthMean(pOff) / Stats.fastTenthMean(pOn) - 1) * 100)
        if (replayS > 0) w.replay(run.tracer, replayS)
        run.meta("rounds") = Map("untraced" -> pOff.size, "traced" -> pOn.size)
      }
      e2e("toc_bytes_per_dense_byte") = w.tocBytesPerDenseByte
      w.check()
    } finally w.release()

    run.meta ++= Seq(
      "git_sha" -> sys.props.get("perfbench.git_sha").filter(_.nonEmpty),
      "source_sha256" -> sys.props.get("perfbench.source_sha256"),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024))
    run.meta ++= w.meta
    val perLayer = if (run.traced) Stats.derive(run.tracer.spans, run.tracer.counts, w.selfTimed) else Map.empty[String, Summary]
    val result = LinkedHashMap[String, Any](
      "workload" -> workload, "seed" -> run.seed, "seconds" -> run.seconds, "trace" -> run.traced,
      "primary" -> w.primaryWhat, "secondary" -> w.secondaryWhat,
      "attempted" -> run.attempted, "failed" -> run.failed,
      "failed_frac" -> run.failed.toDouble / math.max(1L, run.attempted),
      "failures" -> run.failures, "meta" -> run.meta, "end_to_end" -> e2e,
      "per_layer" -> perLayer.toSeq.sortBy(_._1).map { case (k, s) =>
        k -> Map("n" -> s.n, "median" -> s.median, "tail_pct" -> s.tailPct, "tail" -> s.tail)
      }.to(LinkedHashMap))
    val out = Paths.get(opt("out"))
    Files.write(out, Json.write(result).getBytes(UTF_8))
    if (run.traced) {
      val trace = Map(
        "spans" -> run.tracer.spans.map(s => Seq(s.id, s.name, s.tag, s.startNs, s.endNs, s.parent, s.epoch, s.batch)),
        "span_fields" -> Seq("id", "name", "tag", "start_ns", "end_ns", "parent", "epoch", "batch"),
        "counts" -> run.tracer.counts.map(c => Seq(c.name, c.tag, c.value, c.span, c.epoch, c.batch)),
        "count_fields" -> Seq("name", "tag", "value", "span", "epoch", "batch"),
        "self_timed" -> w.selfTimed)
      Files.write(Paths.get(out.toString.stripSuffix(".json") + ".trace.json"), Json.write(trace).getBytes(UTF_8))
    }

    println(s"workload=$workload seed=${run.seed} trace=${if (run.traced) 1 else 0} " +
      s"attempted=${run.attempted} failed=${run.failed}")
    run.failures.foreach(f => println(s"  FAILED: $f"))
    e2e.foreach { case (k, v) => println(f"  $k%-28s $v%.6g") }
    perLayer.toSeq.sortBy(_._1).foreach { case (k, s) =>
      val tail = s.tailPct.map(p => f"p${p.toString.stripSuffix(".0")}=${s.tail.get}%.6g")
        .getOrElse("(too few samples for a tail)")
      println(f"  $k%-40s median=${s.median}%.6g n=${s.n}%d $tail")
    }
  }
}
