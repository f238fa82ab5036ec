package repro.linalg

import org.scalatest.funsuite.AnyFunSuite

class EncodingsSpec extends AnyFunSuite {

  test("registry lists the paper's eight methods in order") {
    assert(Encodings.all.map(_.name) ==
      Seq("TOC", "DEN", "CSR", "CVI", "DVI", "CLA", "Snappy", "Gzip"))
  }

  test("byName is case-insensitive and rejects unknowns") {
    assert(Encodings.byName("toc").name == "TOC")
    assert(Encodings.byName("GZIP").name == "Gzip")
    intercept[IllegalArgumentException](Encodings.byName("lz4"))
  }
}
