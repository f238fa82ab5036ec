package repro.mgd

import repro.linalg.CompressedMatrix

/** One encoded mini-batch: the compressed feature matrix `A` (|B| x d)
  * plus the raw label vector. Labels are class ids (0/1 for binary,
  * 0..k-1 for multiclass); each model maps them to its own target coding.
  */
final case class MiniBatch(x: CompressedMatrix, y: Array[Double]) {
  require(x.numRows == y.length, s"batch rows ${x.numRows} != labels ${y.length}")
  def size: Int = y.length
}
