package repro.perfbench

import repro.core.{PrefixTreeEncoder, SparseEncoder, TocEncoder, TocMatrix, TocPhysical}
import repro.data.{DatasetSpec, Datasets}
import repro.linalg.{DenseMatrix, Encodings}

/** `encode`: single-threaded TOC compression of 250-row batches to bytes.
  *
  * Algorithm 1 dominates on imagenet- and mnist-like and is a small share
  * on census- and kdd99-like, so the two groups are the primary and the
  * secondary case: an encoder change shows in both, and a change that
  * trades one stage for another shows as a difference between them. No
  * kernel, model or Spark code runs.
  */
final class EncodeBench(run: Run) extends Workload {
  private val BatchRows = 250

  private final class Group(val specs: Seq[DatasetSpec], val batchesPerAnalog: Int) {
    var batches: IndexedSeq[(String, DenseMatrix)] = IndexedSeq.empty
    var bytes: Array[Array[Byte]] = Array.empty
    def rows: Int = batches.map(_._2.rows).sum
  }
  private val primary = new Group(Seq(Datasets.imagenet, Datasets.mnist).map(run.analog), 4)
  // The light analogs get four times the batches, so that each secondary
  // sample times about 20 ms of encoding rather than 5 ms.
  private val secondary = new Group(Seq(Datasets.census, Datasets.kdd99).map(run.analog), 16)
  private val groups = Seq(primary, secondary)

  val primaryWhat = "rows/s compressed to TOC bytes, imagenet-like and mnist-like"
  val secondaryWhat = "rows/s compressed to TOC bytes, census-like and kdd99-like"

  def setUp(t: Tracer): Unit = groups.foreach { g =>
    g.batches = g.specs.flatMap { spec =>
      (0 until g.batchesPerAnalog).map { b =>
        spec.name -> t.span("data.generate", spec.name) {
          Datasets.slice(spec, b.toLong * BatchRows, BatchRows)._1
        }
      }
    }.toIndexedSeq
    g.bytes = g.batches.map { case (_, x) => TocEncoder.encode(x).toBytes }.toArray
  }

  def release(): Unit = groups.foreach { g => g.batches = IndexedSeq.empty; g.bytes = Array.empty }

  def round(t: Tracer): (Double, Double) = {
    val tp = groups.map { g =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < g.batches.length) {
        val (name, x) = g.batches(i)
        t.batch = i
        run.attempt(s"encode $name batch $i") {
          g.bytes(i) = if (t.enabled) stages(t, name, x) else TocEncoder.encode(x).toBytes
        }
        i += 1
      }
      g.rows / ((System.nanoTime() - t0) / 1e9)
    }
    (tp(0), tp(1))
  }

  /** The steps of `TocEncoder.encode` and `toBytes`, one span each. */
  private def stages(t: Tracer, tag: String, x: DenseMatrix): Array[Byte] = t.span("core.encode", tag) {
    val sparse = t.span("core.sparse", tag)(SparseEncoder.encode(x))
    val logical = t.span("core.logical", tag) {
      val a0 = Jvm.threadAllocated
      val l = PrefixTreeEncoder.encode(sparse)
      t.count("core.logical_alloc_kb", tag, (Jvm.threadAllocated - a0) / 1024.0)
      l
    }
    val physical = t.span("core.physical", tag)(TocPhysical.encode(x.rows, x.cols, logical))
    val bytes = t.span("core.to_bytes", tag)(new TocMatrix(physical).toBytes)
    t.count("core.nnz", tag, sparse.map(_.length).sum.toDouble)
    t.count("core.i_len", tag, logical.i.length.toDouble)
    t.count("core.d_len", tag, physical.tokens.length.toDouble)
    t.count("core.dict_len", tag, physical.dict.length.toDouble)
    t.count("core.batch_bytes", tag, bytes.length.toDouble)
    bytes
  }

  /** In a traced run, the staged encode gave the same bytes as
    * `TocEncoder.encode`; every batch's last bytes decode bit for bit to
    * the batch.
    */
  def check(): Unit = {
    for (g <- groups; i <- g.batches.indices if run.traced) {
      val (name, x) = g.batches(i)
      run.check(s"$name batch $i: staged encode differs from TocEncoder.encode") {
        java.util.Arrays.equals(g.bytes(i), TocEncoder.encode(x).toBytes)
      }
    }
    if (run.corrupt) primary.bytes(0)(12) = (primary.bytes(0)(12) ^ 1).toByte // low bit of dict(0)
    for (g <- groups; i <- g.batches.indices) {
      val (name, x) = g.batches(i)
      run.check(s"$name batch $i does not round-trip bit for bit") {
        val back = TocEncoder.fromBytes(g.bytes(i)).decode
        back.rows == x.rows && back.cols == x.cols && Compare.sameBits(back.data, x.data)
      }
    }
  }

  def tocBytesPerDenseByte: Double = {
    val den = Encodings.byName("DEN")
    val all = groups.flatMap(g => g.batches.map(_._2).zip(g.bytes))
    all.map(_._2.length.toLong).sum.toDouble / all.map { case (x, _) => den.encode(x).sizeBytes }.sum
  }

  def meta: Map[String, Any] = Map(
    "rows" -> groups.flatMap(g => g.specs.map(_.name -> g.batchesPerAnalog * BatchRows)).toMap,
    "batch_rows" -> BatchRows, "threads" -> 1)
}
