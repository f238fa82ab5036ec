package repro.linalg

import repro.baselines._
import repro.core.TocEncoder

/** Registry of all compared encodings (the method rows of Tables 6/7). */
object Encodings {
  /** Paper order: TOC first, then baseline, LMC, then GC schemes. */
  val all: Seq[MatrixEncoder] =
    Seq(TocEncoder, DenEncoder, CsrEncoder, CviEncoder, DviEncoder, ClaEncoder,
        SnappyEncoder, GzipEncoder)

  def byName(name: String): MatrixEncoder =
    all.find(_.name.equalsIgnoreCase(name))
      .getOrElse(throw new IllegalArgumentException(
        s"unknown encoding '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
