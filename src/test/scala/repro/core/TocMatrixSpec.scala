package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.SparseRowPropertySpec
import repro.linalg.{DenseMatrix, TestMatrices}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._

/** Algorithms 3–8 checked against the dense reference kernels, including
  * the Figure 3 example and randomized matrices across sparsity regimes.
  */
class TocMatrixSpec extends AnyFunSuite {
  import TocMatrixSpec._

  val eps = 1e-9

  def assertVec(got: Array[Double], want: Array[Double]): Unit = {
    assert(got.length == want.length)
    got.zip(want).zipWithIndex.foreach { case ((g, w), i) =>
      assert(math.abs(g - w) <= eps * math.max(1.0, math.abs(w)), s"index $i: $g vs $w")
    }
  }

  def assertMat(got: DenseMatrix, want: DenseMatrix): Unit = {
    assert(got.rows == want.rows && got.cols == want.cols)
    assertVec(got.data, want.data)
  }

  test("Figure 3 matrix: decode(encode(A)) == A (lossless)") {
    val a = Fig3.tableA
    assert(TocEncoder.encode(a).decode == a)
  }

  test("Figure 3 matrix: A·v matches the dense kernel") {
    val a = Fig3.tableA
    val v = Array(1.0, -2.0, 0.5, 3.0)
    assertVec(TocEncoder.encode(a).timesVector(v), a.timesVector(v))
  }

  test("Theorem 1 by hand on Figure 3: row sums via F decomposition") {
    // v = ones → A·v = row sums.
    val a = Fig3.tableA
    val ones = Array.fill(4)(1.0)
    assertVec(TocEncoder.encode(a).timesVector(ones),
      Array(1.1 + 2 + 3 + 1.4, 1.1 + 2 + 3, 1.1 + 3 + 1.4, 1.1 + 2))
  }

  test("Figure 3 matrix: v·A matches the dense kernel") {
    val a = Fig3.tableA
    val v = Array(0.5, 1.0, -1.0, 2.0)
    assertVec(TocEncoder.encode(a).vectorTimes(v), a.vectorTimes(v))
  }

  test("Figure 3 matrix: A·M matches the dense kernel") {
    val a = Fig3.tableA
    val m = DenseMatrix.rand(4, 3, seed = 11)
    assertMat(TocEncoder.encode(a).timesMatrix(m), a.timesMatrix(m))
  }

  test("Figure 3 matrix: M·A matches the dense kernel") {
    val a = Fig3.tableA
    val m = DenseMatrix.rand(3, 4, seed = 12)
    assertMat(TocEncoder.encode(a).leftTimes(m), a.leftTimes(m))
  }

  test("Algorithm 3: A.*c scales in compressed form without re-encoding") {
    val a = Fig3.tableA
    val scaled = TocEncoder.encode(a).timesScalar(2.5)
    assert(scaled.isInstanceOf[TocMatrix])
    assertMat(scaled.decode, a.timesScalar(2.5))
    // tokens/structure untouched — only the dictionary changed
    assert(scaled.physical.tokens.toSeq == TocEncoder.encode(a).physical.tokens.toSeq)
  }

  test("§4.5: sparse-unsafe A.+c decodes then operates") {
    val a = Fig3.tableA
    assertMat(TocEncoder.encode(a).plusScalar(1.5), a.plusScalar(1.5))
  }

  test("serialization round-trip preserves all op results") {
    val a = DenseMatrix.rand(30, 20, seed = 9, sparsity = 0.4)
    val toc = TocEncoder.encode(a)
    val back = TocEncoder.fromBytes(toc.toBytes)
    val v = Array.tabulate(20)(i => math.sin(i.toDouble))
    assertVec(back.timesVector(v), a.timesVector(v))
    assert(back.decode == a)
  }

  test("a code naming its own node throws CorruptBatchException instead of hanging") {
    // I = [(0, 1.0)] and one row with codes [2, 2]: node 2 would be its own parent.
    val bytes = TocPhysical(1, 1, Array(1.0), Array(0), Array(0), Array(2, 2), Array(0)).toBytes
    val decoded = Future(TocEncoder.fromBytes(bytes).decode)(ExecutionContext.global)
    intercept[CorruptBatchException](Await.result(decoded, 10.seconds))
  }

  test("a 1.8 MB chain of self-references (L = 600 000) throws CorruptBatchException within 1 s from decode, A·M and M·A") {
    // I = [(0, 1.0)] and one row with codes 1..L: each code names the node
    // being built, so the tuple would expand to L(L+1)/2 pairs of column 0.
    val l = 600000
    val bytes = TocPhysical(1, 1, Array(1.0), Array(0), Array(0), Array.range(1, l + 1), Array(0)).toBytes
    val ops: Seq[(String, TocMatrix => Any)] = Seq(
      "decode" -> (_.decode),
      "A·M" -> (_.timesMatrix(DenseMatrix.rand(1, 200, seed = 1))),
      "M·A" -> (_.leftTimes(DenseMatrix.rand(200, 1, seed = 2))))
    for ((name, op) <- ops) withClue(s"$name: ") {
      val start = System.nanoTime()
      val result = Future(op(TocEncoder.fromBytes(bytes)))(ExecutionContext.global)
      intercept[CorruptBatchException](Await.result(result, 10.seconds))
      assert(System.nanoTime() - start < 1000000000L)
    }
  }

  test("a tuple whose codes repeat a column throws CorruptBatchException, so no op can disagree with decode") {
    // I = [(0, 1.0)] and D = [1, 1] would decode to [0:1, 0:1]: decode keeps
    // one 1.0 where A·v adds both.
    val toc = TocEncoder.fromBytes(TocPhysical(1, 1, Array(1.0), Array(0), Array(0), Array(1, 1), Array(0)).toBytes)
    intercept[CorruptBatchException](toc.decode)
    intercept[CorruptBatchException](toc.timesVector(Array(1.0)))
  }

  test("a code that names no node, or one not built yet, throws CorruptBatchException") {
    // I = [(0, 1.0)]; the full tree has n = 1 + |I| + sum(len(D[i]) - 1) nodes.
    def bytes(rows: Seq[Seq[Int]]): Array[Byte] =
      TocPhysical(rows.length, 1, Array(1.0), Array(0), Array(0),
        rows.flatten.toArray, rows.scanLeft(0)(_ + _.length).init.toArray).toBytes
    val bad = Seq(
      "0" -> Seq(Seq(1, 0)),
      "n" -> Seq(Seq(1, 3)),
      "Int.MaxValue" -> Seq(Seq(1, Int.MaxValue)),
      "a forward reference inside a tuple" -> Seq(Seq(1, 3, 1)),
      "a forward reference as a tuple's first code" -> Seq(Seq(3), Seq(1, 1), Seq(1, 1)))
    for ((what, rows) <- bad) withClue(s"$what: ") {
      val toc = TocEncoder.fromBytes(bytes(rows))
      intercept[CorruptBatchException](toc.timesVector(Array(1.0)))
      intercept[CorruptBatchException](toc.decode)
    }
  }

  test("v·A and M·A give ±Inf, not NaN, where an LZW node no code names carries an infinite key") {
    // D = [1, 2] [3, 4]; Algorithm 2 also builds node 5 = [0:1, 1:+Inf], which no code names.
    val a = TestMatrices.fromRows(Seq(Seq(1.0, Double.PositiveInfinity), Seq(2.0, 3.0)))
    val toc = TocEncoder.encode(a)
    assert(toc.vectorTimes(Array(1.0, 1.0)).toSeq == Seq(3.0, Double.PositiveInfinity))
    assert(toc.leftTimes(new DenseMatrix(1, 2, Array(1.0, 1.0))).data.toSeq == Seq(3.0, Double.PositiveInfinity))
  }

  test("a NaN column compresses like any repeated value, and round-trips bit-exact") {
    // Column 0 holds one value in every row; columns 1-3 are constant too.
    def batch(v: Double) = TestMatrices.fromRows(Seq.fill(100)(Seq(v, 1.0, 2.0, 3.0)))
    val nan = TocEncoder.encode(batch(Double.NaN))
    val plain = TocEncoder.encode(batch(1.5))
    assert(nan.physical.iCols.length == 4)
    assert(nan.physical.iCols.length == plain.physical.iCols.length)
    assert(nan.toBytes.length == plain.toBytes.length)
    val back = TocEncoder.fromBytes(nan.toBytes).decode
    assert(back.data.map(java.lang.Double.doubleToRawLongBits).sameElements(
      batch(Double.NaN).data.map(java.lang.Double.doubleToRawLongBits)))
  }

  // Randomized conformance across sparsity regimes, with quantized values
  // (TOC's target regime) and continuous values (worst case).
  for {
    sparsity <- Seq(0.05, 0.3, 0.7, 1.0)
    quantized <- Seq(true, false)
  } test(f"random matrix sparsity=$sparsity%.2f quantized=$quantized: all ops match dense") {
    val rng = new scala.util.Random((sparsity * 100).toInt + (if (quantized) 1 else 0))
    val rows = 40; val cols = 25
    val data = Array.fill(rows * cols) {
      if (rng.nextDouble() < sparsity) {
        if (quantized) (rng.nextInt(5) + 1) * 0.5 else rng.nextDouble() * 10 - 5
      } else 0.0
    }
    val a = new DenseMatrix(rows, cols, data)
    val toc = TocEncoder.encode(a)
    assert(toc.decode == a)
    val v = Array.fill(cols)(rng.nextDouble() - 0.5)
    val u = Array.fill(rows)(rng.nextDouble() - 0.5)
    val m = DenseMatrix.rand(cols, 6, seed = 21)
    val ml = DenseMatrix.rand(6, rows, seed = 22)
    assertVec(toc.timesVector(v), a.timesVector(v))
    assertVec(toc.vectorTimes(u), a.vectorTimes(u))
    assertMat(toc.timesMatrix(m), a.timesMatrix(m))
    assertMat(toc.leftTimes(ml), a.leftTimes(ml))
    assertMat(toc.timesScalar(-1.5).decode, a.timesScalar(-1.5))
  }

  test("all-zero matrix: every op yields zeros") {
    val a = DenseMatrix.zeros(10, 8)
    val toc = TocEncoder.encode(a)
    assert(toc.decode == a)
    assert(toc.timesVector(Array.fill(8)(3.0)).forall(_ == 0.0))
    assert(toc.vectorTimes(Array.fill(10)(3.0)).forall(_ == 0.0))
    assert(toc.sizeBytes < a.denSizeBytes)
  }

  test("1x1 matrices") {
    for (v <- Seq(0.0, 4.2)) {
      val a = new DenseMatrix(1, 1, Array(v))
      val toc = TocEncoder.encode(a)
      assert(toc.decode == a)
      assertVec(toc.timesVector(Array(2.0)), Array(2.0 * v))
    }
  }

  test("repetitive rows compress far below DEN (the §5.1 regime)") {
    // 200 rows drawn from 4 templates with quantized values.
    val rng = new scala.util.Random(55)
    val templates = Array.fill(4)(Array.fill(30)(
      if (rng.nextDouble() < 0.5) (rng.nextInt(4) + 1) * 0.25 else 0.0))
    val rows = Array.tabulate(200)(i => templates(i % 4).clone())
    val a = new DenseMatrix(200, 30, rows.flatten)
    val toc = TocEncoder.encode(a)
    val ratio = a.denSizeBytes.toDouble / toc.sizeBytes
    assert(ratio > 10.0, s"expected strong compression, got ${ratio}x")
    assert(toc.decode == a)
  }

  test("ablation size ordering: full <= sparse+logical <= sparse for repetitive data") {
    val rng = new scala.util.Random(56)
    val template = Array.fill(40)(if (rng.nextDouble() < 0.5) (rng.nextInt(3) + 1) * 0.5 else 0.0)
    val a = new DenseMatrix(100, 40, Array.fill(100)(template).flatten)
    val sparse = repro.baselines.CsrEncoder.encode(a).sizeBytes
    val toc = TocEncoder.encode(a)
    val logical = TocEncoder.sparseLogicalSizeBytes(toc)
    val full = toc.sizeBytes
    assert(logical < sparse)
    assert(full < logical)
  }

  test("v·A and M·A give the bits of Algorithms 5 and 8 with every root push kept, on special values, empty rows and first-layer-only trees (ScalaCheck)") {
    // Algorithm 1's tables of -0.0, NaN, ±Inf and subnormal values, with
    // empty tuples; the same twice over, so the second copy names nodes
    // below the first layer; the same with one pair per tuple, so every
    // code names a first-layer node; and dense batches of special cells,
    // 0-row and 0-column ones included. Operands hold special values too.
    val ascending = DecodeTreeSpec.ascending(PrefixTreeEncoderSpec.plainTables)
    val firstLayerOnly = PrefixTreeEncoderSpec.plainTables.map(_.map(_.take(1)))
    val batches: Gen[TocMatrix] = Gen.frequency(
      3 -> Gen.oneOf(ascending, ascending.map(b => b ++ b), firstLayerOnly)
        .map(b => new TocMatrix(TocViews.physical(PrefixTreeEncoder.encode(TocViews.sparse(b))))),
      1 -> SparseRowPropertySpec.cases.map(t => TocEncoder.encode(t.a)))
    val cases = for {
      toc <- batches
      u <- SparseRowPropertySpec.vec(toc.numRows)
      p <- Gen.choose(1, 4)
      ml <- SparseRowPropertySpec.dense(p, toc.numRows)
    } yield (toc, u, ml)
    var onlyFirstLayer = 0
    var deeper = 0
    val prop = Prop.forAllNoShrink(cases) { case (toc, u, ml) =>
      val tree = DecodeTree.buildFromPhysical(toc.physical)
      if (tree.size > 1 && tree.rootChildren == tree.size - 1) onlyFirstLayer += 1
      if (tree.rootChildren < tree.size - 1) deeper += 1
      (tree.size.toLong * ml.rows <= TocMatrix.HTableBudgetDoubles) :| "M·A left the DP path" &&
        SparseRowPropertySpec.same(toc.vectorTimes(u), vectorTimesPushingRoot(tree, toc.numCols, u)) :| "v·A" &&
        SparseRowPropertySpec.same(toc.leftTimes(ml).data, leftTimesPushingRoot(tree, toc.numCols, ml).data) :| "M·A"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
    info(s"$onlyFirstLayer first-layer-only trees, $deeper with deeper nodes, of ${result.succeeded}")
    assert(onlyFirstLayer > 0 && deeper > 0, s"$onlyFirstLayer first-layer-only, $deeper deeper")
  }
}

object TocMatrixSpec {
  /** `H(D)`'s code counts weighted by `v`, as Algorithm 5 accumulates them. */
  private def codeWeights(tree: DecodeTree, v: Array[Double]): Array[Double] = {
    val h = new Array[Double](tree.size)
    var row = 0
    while (row < v.length) {
      var j = tree.rowPtr(row)
      while (j < tree.rowPtr(row + 1)) { h(tree.codes(j)) += v(row); j += 1 }
      row += 1
    }
    h
  }

  /** Algorithm 5 on `tree` with every node's push kept, the root's
    * children's into `h(0)`.
    */
  def vectorTimesPushingRoot(tree: DecodeTree, numCols: Int, v: Array[Double]): Array[Double] = {
    val h = codeWeights(tree, v)
    val r = new Array[Double](numCols)
    var i = tree.size - 1
    while (i >= 1) {
      r(tree.keyCols(i)) += tree.keyVals(i) * h(i)
      h(tree.parents(i)) += h(i)
      i -= 1
    }
    r
  }

  /** Algorithm 8's dynamic program on `tree` with every node's push kept,
    * `H` node-major as `TocMatrix.leftTimes` stores it.
    */
  def leftTimesPushingRoot(tree: DecodeTree, numCols: Int, m: DenseMatrix): DenseMatrix = {
    val p = m.rows
    val mT = m.transpose.data
    val h = new Array[Double](tree.size * p)
    var row = 0
    while (row < m.cols) {
      var j = tree.rowPtr(row)
      while (j < tree.rowPtr(row + 1)) {
        var k = 0
        while (k < p) { h(tree.codes(j) * p + k) += mT(row * p + k); k += 1 }
        j += 1
      }
      row += 1
    }
    val outT = new Array[Double](numCols * p)
    var i = tree.size - 1
    while (i >= 1) {
      var k = 0
      while (k < p) {
        outT(tree.keyCols(i) * p + k) += tree.keyVals(i) * h(i * p + k)
        h(tree.parents(i) * p + k) += h(i * p + k)
        k += 1
      }
      i -= 1
    }
    new DenseMatrix(numCols, p, outT).transpose
  }
}
