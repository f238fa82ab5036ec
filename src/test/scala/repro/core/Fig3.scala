package repro.core

import repro.linalg.{DenseMatrix, TestMatrices}

/** Shared fixture: the paper's Figure 3 running example. */
object Fig3 {
  /** Sparse encoded table B with the paper's 1-based column indexes. */
  def tableB: Array[Array[ColValue]] = Array(
    Array(ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0), ColValue(4, 1.4)),
    Array(ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0)),
    Array(ColValue(2, 1.1), ColValue(3, 3.0), ColValue(4, 1.4)),
    Array(ColValue(1, 1.1), ColValue(2, 2.0)))

  /** The original dense table A (0-based columns, as a matrix). */
  def tableA: DenseMatrix = TestMatrices.fromRows(Seq(
    Seq(1.1, 2.0, 3.0, 1.4),
    Seq(1.1, 2.0, 3.0, 0.0),
    Seq(0.0, 1.1, 3.0, 1.4),
    Seq(1.1, 2.0, 0.0, 0.0)))
}
