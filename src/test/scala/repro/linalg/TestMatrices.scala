package repro.linalg

/** Test-side builders for small literal matrices. */
object TestMatrices {
  /** Build from a row-of-rows literal. */
  def fromRows(rs: Seq[Seq[Double]]): DenseMatrix = {
    val rows = rs.size
    val cols = if (rows == 0) 0 else rs.head.size
    require(rs.forall(_.size == cols), "ragged rows")
    new DenseMatrix(rows, cols, rs.flatten.toArray)
  }
}
