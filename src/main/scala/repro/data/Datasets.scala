package repro.data

import repro.linalg.DenseMatrix

/** Synthetic analogs of the paper's six evaluation datasets (Table 5).
  *
  * TOC's behaviour on a dataset is driven by three knobs (§5.1): sparsity,
  * value distinctness, and — the knob unique to TOC — repeated
  * column_index:value *subsequences* across rows ("there are sequences of
  * column values which are repeating across matrix rows", §1). Each analog
  * pins those knobs to the regime of the corresponding real dataset
  * (DESIGN.md §4).
  *
  * The moderate-sparsity analogs use a *segment-pool* model: the columns
  * are split into contiguous segments and each row draws every segment
  * independently from a small pool of segment variants (with a skewed
  * popularity distribution and rare per-cell mutations). Rows therefore
  * share many column-subsequences without sharing whole rows — exactly
  * the redundancy TOC's prefix tree captures and whole-row LZ77 matching
  * (Gzip) captures only partially. Rcv1 uses no segments and continuous
  * values (extreme sparsity — CSR country); Deep1B is fully dense with
  * all-unique values (nothing compresses).
  *
  * Generation is a pure function of `(spec, rowIndex)` so the local and
  * Spark paths produce byte-identical data.
  */
final case class DatasetSpec(
    name: String,
    paperName: String,
    paperDims: String,
    paperSizeGb: Double,
    paperSparsity: Double,
    cols: Int,
    sparsity: Double,
    numSegments: Int,        // 0 = unstructured (no cross-row redundancy)
    variantsPerSegment: Int,
    valuePoolSize: Int,      // 0 = continuous (all-unique) values
    mutationRate: Double,    // chance a variant cell's value is re-drawn per row
    numClasses: Int,
    seed: Long
)

object Datasets {

  /** Census analog: low-dim, moderately sparse, heavily repetitive
    * (one-hot-heavy categorical data) — TOC's strong regime.
    */
  val census: DatasetSpec = DatasetSpec(
    "census-like", "US Census", "2.5M x 68", 0.46, 0.43,
    cols = 68, sparsity = 0.43, numSegments = 8, variantsPerSegment = 8,
    valuePoolSize = 12, mutationRate = 0.01, numClasses = 2, seed = 101)

  /** ImageNet-features analog: mid-dim, moderate sparsity, moderate
    * redundancy.
    */
  val imagenet: DatasetSpec = DatasetSpec(
    "imagenet-like", "ImageNet", "1.2M x 900", 2.8, 0.31,
    cols = 900, sparsity = 0.31, numSegments = 30, variantsPerSegment = 16,
    valuePoolSize = 32, mutationRate = 0.02, numClasses = 2, seed = 102)

  /** Mnist8m analog: mid-dim, moderate sparsity but *few* repeated
    * subsequences (many variants, high mutation, large value pool) — the
    * dataset where the paper's TOC trails Gzip on ratio (§5.1).
    */
  val mnist: DatasetSpec = DatasetSpec(
    "mnist-like", "Mnist8m", "8.1M x 784", 11.3, 0.25,
    cols = 784, sparsity = 0.25, numSegments = 28, variantsPerSegment = 64,
    valuePoolSize = 64, mutationRate = 0.1, numClasses = 10, seed = 103)

  /** Kdd99 analog: low-dim network-connection records, extremely
    * repetitive — the paper's 51x-ratio dataset.
    */
  val kdd99: DatasetSpec = DatasetSpec(
    "kdd99-like", "Kdd99", "4M x 42", 1.6, 0.39,
    cols = 42, sparsity = 0.39, numSegments = 6, variantsPerSegment = 3,
    valuePoolSize = 8, mutationRate = 0.001, numClasses = 2, seed = 104)

  /** Rcv1 analog: extremely sparse bag-of-words with continuous tf-idf
    * values (column count scaled from 47k to 4k — same nnz/row regime).
    */
  val rcv1: DatasetSpec = DatasetSpec(
    "rcv1-like", "Rcv1", "800K x 47236", 0.96, 0.0016,
    cols = 4000, sparsity = 0.0016, numSegments = 0, variantsPerSegment = 0,
    valuePoolSize = 0, mutationRate = 0.0, numClasses = 2, seed = 105)

  /** Deep1B analog: fully dense unique-valued descriptors — nothing for
    * any scheme to exploit.
    */
  val deep1b: DatasetSpec = DatasetSpec(
    "deep1b-like", "Deep1Billion", "1B x 96", 475.0, 1.0,
    cols = 96, sparsity = 1.0, numSegments = 0, variantsPerSegment = 0,
    valuePoolSize = 0, mutationRate = 0.0, numClasses = 2, seed = 106)

  val all: Seq[DatasetSpec] = Seq(census, imagenet, mnist, kdd99, rcv1, deep1b)

  // ---- generation ----------------------------------------------------------

  /** Per-spec derived state (segment variants, value pool, true model) —
    * cheap to rebuild, so Spark executors reconstruct it per partition.
    */
  final class GenContext(val spec: DatasetSpec) {
    val pool: Array[Double] =
      if (spec.valuePoolSize == 0) Array.empty
      else Array.tabulate(spec.valuePoolSize)(j =>
        math.rint((j + 1) * 100.0 / spec.valuePoolSize) / 100.0)

    /** Segment boundaries: `numSegments` contiguous column ranges. */
    val segStarts: Array[Int] =
      if (spec.numSegments == 0) Array.empty
      else Array.tabulate(spec.numSegments + 1)(s =>
        (s.toLong * spec.cols / spec.numSegments).toInt)

    /** variants(seg)(v) is a dense slice for columns
      * [segStarts(seg), segStarts(seg+1)).
      */
    val variants: Array[Array[Array[Double]]] =
      Array.tabulate(spec.numSegments) { s =>
        val width = segStarts(s + 1) - segStarts(s)
        Array.tabulate(spec.variantsPerSegment) { v =>
          val rng = new scala.util.Random(spec.seed * 7919 + s * 104729 + v)
          Array.tabulate(width)(_ =>
            if (rng.nextDouble() < spec.sparsity) pool(rng.nextInt(pool.length)) else 0.0)
        }
      }

    /** True parameters for label generation. */
    val wTrue: Array[Array[Double]] = {
      val k = math.max(1, if (spec.numClasses <= 2) 1 else spec.numClasses)
      val rng = new scala.util.Random(spec.seed + 999)
      Array.fill(k)(Array.fill(spec.cols)(rng.nextGaussian()))
    }
  }

  /** SplitMix64-style mix so per-row RNG streams are independent. */
  private def mix(seed: Long, i: Long): Long = {
    var z = seed + i * 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Generate row `i`'s feature vector. */
  def row(ctx: GenContext, i: Long): Array[Double] = {
    val spec = ctx.spec
    val rng = new scala.util.Random(mix(spec.seed, i))
    if (spec.numSegments > 0) {
      val out = new Array[Double](spec.cols)
      var s = 0
      while (s < spec.numSegments) {
        // Skewed popularity: squaring biases toward low-index variants,
        // so a few segment variants dominate (realistic categorical skew).
        val u = rng.nextDouble()
        val variant = ctx.variants(s)((u * u * spec.variantsPerSegment).toInt)
        val start = ctx.segStarts(s)
        var j = 0
        while (j < variant.length) {
          var v = variant(j)
          if (v != 0.0 && rng.nextDouble() < spec.mutationRate)
            v = ctx.pool(rng.nextInt(ctx.pool.length))
          out(start + j) = v
          j += 1
        }
        s += 1
      }
      out
    } else {
      val out = new Array[Double](spec.cols)
      var j = 0
      while (j < out.length) {
        if (rng.nextDouble() < spec.sparsity)
          out(j) =
            if (ctx.pool.nonEmpty) ctx.pool(rng.nextInt(ctx.pool.length))
            else math.rint(rng.nextDouble() * 1e6) / 1e6 // continuous, de-facto unique
        j += 1
      }
      out
    }
  }

  /** Label for row `i` given its features: noisy linear/argmax target so
    * MGD training has signal to fit.
    */
  def label(ctx: GenContext, i: Long, x: Array[Double]): Double = {
    val rng = new scala.util.Random(mix(ctx.spec.seed + 31, i))
    def dot(w: Array[Double]): Double = {
      var s = 0.0; var j = 0
      while (j < x.length) { s += x(j) * w(j); j += 1 }
      s
    }
    if (ctx.spec.numClasses <= 2) {
      if (dot(ctx.wTrue(0)) + 0.3 * rng.nextGaussian() > 0) 1.0 else 0.0
    } else {
      var best = 0; var bv = Double.NegativeInfinity
      var c = 0
      while (c < ctx.wTrue.length) {
        val s = dot(ctx.wTrue(c)) + 0.3 * rng.nextGaussian()
        if (s > bv) { bv = s; best = c }
        c += 1
      }
      best.toDouble
    }
  }

  /** Materialize rows `[from, from+count)` locally. */
  def slice(spec: DatasetSpec, from: Long, count: Int): (DenseMatrix, Array[Double]) = {
    val ctx = new GenContext(spec)
    val data = new Array[Double](count * spec.cols)
    val y = new Array[Double](count)
    var i = 0
    while (i < count) {
      val x = row(ctx, from + i)
      System.arraycopy(x, 0, data, i * spec.cols, spec.cols)
      y(i) = label(ctx, from + i, x)
      i += 1
    }
    (new DenseMatrix(count, spec.cols, data), y)
  }

  /** Bytes of the dataset's text serialization (CSV with the same numeric
    * formatting the generators produce) — Table 5 reports text sizes, so
    * the Table 5 bench measures this on the generated rows.
    */
  def textBytes(x: DenseMatrix, y: Array[Double]): Long = {
    var total = 0L
    var i = 0
    while (i < x.rows) {
      val sb = new java.lang.StringBuilder()
      sb.append(y(i))
      var j = 0
      while (j < x.cols) {
        sb.append(',')
        val v = x(i, j)
        if (v == math.rint(v)) sb.append(v.toLong) else sb.append(v)
        j += 1
      }
      total += sb.length() + 1 // newline
      i += 1
    }
    total
  }
}
