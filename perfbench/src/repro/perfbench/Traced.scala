package repro.perfbench

import repro.core.{TocMatrix, TocPhysical}
import repro.linalg.{CompressedMatrix, DenseMatrix}
import repro.mgd.{MiniBatch, Model}

/** Wraps a mini-batch's matrix so that every kernel call made inside
  * `Model.step` becomes a child span of that step, tagged with the
  * batch's analog. Used by the traced run only; the untraced run hands the
  * program the bare matrices.
  */
final class TracedMatrix(val inner: CompressedMatrix, val batch: Int, tag: String, t: Tracer)
    extends CompressedMatrix {
  /** |C′|, derived from the physical arrays without building the tree. */
  val cPrimeSize: Long = inner match {
    case toc: TocMatrix => TracedMatrix.cPrimeSize(toc.physical)
    case _ => 0L
  }

  def numRows: Int = inner.numRows
  def numCols: Int = inner.numCols
  def sizeBytes: Long = inner.sizeBytes
  def timesVector(v: Array[Double]): Array[Double] = t.span("core.av", tag)(inner.timesVector(v))
  def vectorTimes(v: Array[Double]): Array[Double] = t.span("core.va", tag)(inner.vectorTimes(v))
  def timesMatrix(m: DenseMatrix): DenseMatrix = {
    countPath(m.cols)
    t.span("core.am", tag)(inner.timesMatrix(m))
  }
  def leftTimes(m: DenseMatrix): DenseMatrix = {
    countPath(m.rows)
    t.span("core.ma", tag)(inner.leftTimes(m))
  }
  def timesScalar(c: Double): CompressedMatrix = t.span("core.scale", tag)(inner.timesScalar(c))
  def decode: DenseMatrix = t.span("core.decode", tag)(inner.decode)

  /** 1 when `A·M`/`M·A` with `p` columns takes the chain fallback. */
  private def countPath(p: Int): Unit =
    t.count("core.am_chain_frac", tag, if (cPrimeSize * p > TocMatrix.HTableBudgetDoubles) 1.0 else 0.0)
}

object TracedMatrix {
  def cPrimeSize(p: TocPhysical): Long = {
    var extra = 0L
    var r = 0
    while (r < p.numRows) {
      val to = if (r + 1 < p.numRows) p.rowStarts(r + 1) else p.tokens.length
      extra += math.max(0, to - p.rowStarts(r) - 1)
      r += 1
    }
    1L + p.iCols.length + extra
  }

  def wrap(batches: IndexedSeq[MiniBatch], tag: String, t: Tracer): IndexedSeq[MiniBatch] =
    batches.zipWithIndex.map { case (b, i) => MiniBatch(new TracedMatrix(b.x, i, tag, t), b.y) }
}

/** Wraps a model so each `step` and `loss` call becomes a span named
  * `<layer>_step` / `<layer>_loss`, tagged with the analog and recording
  * the batch it ran on.
  */
final class TracedModel(val inner: Model, layer: String, tag: String, t: Tracer) extends Model {
  private def at(b: MiniBatch): Unit = t.batch = b.x match {
    case m: TracedMatrix => m.batch
    case _ => -1
  }
  def step(batch: MiniBatch, lr: Double): Unit = { at(batch); t.span(layer + "_step", tag)(inner.step(batch, lr)) }
  def loss(batch: MiniBatch): Double = { at(batch); t.span(layer + "_loss", tag)(inner.loss(batch)) }
  def params: Array[Double] = inner.params
  def setParams(p: Array[Double]): Unit = inner.setParams(p)
  def copyModel: Model = new TracedModel(inner.copyModel, layer, tag, t)
}
