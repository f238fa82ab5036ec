package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.Outcome
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TocViews._
import scala.collection.mutable

/** Reproduces the paper's running example: Figure 3's table B encoded by
  * Algorithm 1, checked step-for-step against Table 2.
  */
class PrefixTreeEncoderSpec extends AnyFunSuite {

  // Figure 3's sparse encoded table B, with the paper's 1-based columns.
  def tableB: Array[Array[ColValue]] = Fig3.tableB

  lazy val encoded = PrefixTreeEncoder.encode(sparse(tableB))
  // C' rebuilds Algorithm 1's final tree: same node numbers, keys and parents.
  lazy val tree = TocViews.tree(encoded)

  /** Every test here encodes on reused tables, the JVM's spare set or a
    * set a property makes, where a walk or probe on tables that never
    * empty would loop forever. So each runs under a [[TimeLimit]].
    */
  override def withFixture(test: NoArgTest): Outcome = TimeLimit.within()(super.withFixture(test))

  def check(prop: Prop, minSuccessful: Int): Unit = {
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(minSuccessful).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("Table 2 phase I: tree initialized with the 5 unique pairs, in order") {
    assert(encoded.i.pairs.toSeq == Seq(
      ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0), ColValue(4, 1.4), ColValue(2, 1.1)))
  }

  test("Figure 3: encoded table D matches") {
    assert(encoded.d.map(_.toSeq).toSeq == Seq(
      Seq(1, 2, 3, 4), Seq(6, 3), Seq(5, 8), Seq(6)))
  }

  test("Table 2: nodes 6-10 added in the documented order with documented sequences") {
    assert(tree.size == 11)
    assert(tree.sequence(6) == List(ColValue(1, 1.1), ColValue(2, 2.0)))
    assert(tree.sequence(7) == List(ColValue(2, 2.0), ColValue(3, 3.0)))
    assert(tree.sequence(8) == List(ColValue(3, 3.0), ColValue(4, 1.4)))
    assert(tree.sequence(9) == List(ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0)))
    assert(tree.sequence(10) == List(ColValue(2, 1.1), ColValue(3, 3.0)))
  }

  test("Table 2: LongestMatchFromTree returns the documented matches for R2") {
    // Appending R2 and R4 again matches each against the final tree. R2's
    // prefix [1:1.1, 2:2, 3:3] is node 9 (Table 2 documents the
    // mid-encoding state, where the match was node 6); R4 = [1:1.1, 2:2]
    // is node 6 exactly (Table 2's last row). No new pair enters I.
    val enc = PrefixTreeEncoder.encode(sparse(tableB :+ tableB(1) :+ tableB(3)))
    assert(enc.i.length == 5)
    assert(enc.d.takeRight(2).map(_.toSeq).toSeq == Seq(Seq(9), Seq(6)))
  }

  test("Table 3: tuple boundaries preserved — each tuple encoded separately") {
    // The number of code vectors equals the number of tuples.
    assert(encoded.d.length == tableB.length)
    // Decoding each code vector independently gives back exactly that tuple.
    val decoded = TocViews.decode(encoded)
    decoded.zip(tableB).foreach { case (got, want) => assert(got.toSeq == want.toSeq) }
  }

  test("matches are always at least one pair long (phase I guarantee)") {
    encoded.d.zipWithIndex.foreach { case (codes, r) =>
      assert(codes.nonEmpty == tableB(r).nonEmpty)
    }
  }

  test("all-zero tuple encodes to an empty code vector") {
    val withEmpty = tableB :+ Array.empty[ColValue]
    val enc = PrefixTreeEncoder.encode(sparse(withEmpty))
    assert(enc.d.last.isEmpty)
    assert(TocViews.decode(enc).last.isEmpty)
  }

  test("single-tuple table: codes cover the tuple") {
    val single = Array(tableB(0))
    val enc = PrefixTreeEncoder.encode(sparse(single))
    assert(TocViews.decode(enc)(0).toSeq == tableB(0).toSeq)
  }

  test("identical tuples collapse to the same single code after warm-up") {
    val rows = Array.fill(10)(tableB(0))
    val enc = PrefixTreeEncoder.encode(sparse(rows))
    // First row pays the learning cost; later rows shrink as the tree grows,
    // and eventually a whole tuple is one code.
    assert(enc.d.head.length == 4)
    assert(enc.d.last.length < enc.d.head.length)
    assert(enc.d.map(_.length).sum < 10 * 4)
    TocViews.decode(enc).foreach(r => assert(r.toSeq == tableB(0).toSeq))
  }

  test("LZW self-reference (KwKwK) case decodes correctly") {
    // A repeated identical pair makes D reference a node in the same step
    // it is created on the decode side (handled by Algorithm 2's ordering).
    val p = ColValue(1, 7.0)
    val rows = Array(Array(p, p, p))
    val enc = PrefixTreeEncoder.encode(sparse(rows))
    assert(enc.d(0).toSeq == Seq(1, 2))
    assert(TocViews.decode(enc)(0).toSeq == Seq(p, p, p))
  }

  test("randomized round-trip over arbitrary pair tables") {
    val rng = new scala.util.Random(777)
    for (trial <- 1 to 50) {
      val rows = Array.fill(rng.nextInt(20) + 1) {
        Array.fill(rng.nextInt(15))(
          ColValue(rng.nextInt(8), (rng.nextInt(5) + 1) * 0.5))
      }
      val enc = PrefixTreeEncoder.encode(sparse(rows))
      val dec = TocViews.decode(enc)
      rows.zip(dec).foreach { case (want, got) =>
        assert(got.toSeq == want.toSeq, s"trial $trial")
      }
    }
  }

  test("linear complexity invariant: code count never exceeds pair count") {
    val rng = new scala.util.Random(99)
    val rows = Array.fill(50)(Array.fill(rng.nextInt(30))(
      ColValue(rng.nextInt(10), (rng.nextInt(4) + 1).toDouble)))
    val enc = PrefixTreeEncoder.encode(sparse(rows))
    enc.d.zip(rows).foreach { case (codes, row) => assert(codes.length <= row.length) }
  }

  test("phase I's dictionary and value indexes equal ValueIndex over I's values (ScalaCheck)") {
    // Few columns, so they repeat within and across tuples; values include
    // -0.0, two NaN payloads and ±Inf.
    val value = Gen.frequency(
      3 -> Gen.oneOf(0.5, 1.5, -2.0, -0.0, Double.NaN,
        java.lang.Double.longBitsToDouble(0x7ff8000000000001L), Double.PositiveInfinity, Double.NegativeInfinity),
      1 -> Gen.choose(-4.0, 4.0))
    val pair = for (c <- Gen.choose(0, 5); v <- value) yield ColValue(c, v)
    val tables = Gen.listOf(Gen.listOf(pair).map(_.toArray)).map(_.toArray)
    def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val prop = Prop.forAllNoShrink(tables) { b =>
      // I: each distinct (column, raw bits) pair, in first-occurrence order.
      val firstLayer = mutable.LinkedHashMap.empty[(Int, Long), ColValue]
      for (t <- b; cv <- t) firstLayer.getOrElseUpdate((cv.col, java.lang.Double.doubleToRawLongBits(cv.value)), cv)
      val (dict, valIdx) = ValueIndex(firstLayer.values.map(_.value).toArray)
      val i = PrefixTreeEncoder.encode(sparse(b)).i
      i.cols.toSeq == firstLayer.values.map(_.col).toSeq && i.valIdx.toSeq == valIdx.toSeq && bits(i.dict) == bits(dict)
    }
    check(prop, 300)
  }

  test("Algorithm 1 gives the same I, dict, tokens and rowStarts as a naive §3.1 reference (ScalaCheck)") {
    import PrefixTreeEncoderSpec._
    check(Prop.forAllNoShrink(largeTables)(matchesReference(_)), 200)
  }

  /** Encodes each of 4 tables, ordered by `order`, in turn on one set of
    * tables that each case makes itself, and checks every encode against
    * the reference.
    */
  def onReusedTables(order: Array[Array[ColValue]] => Int): Unit = {
    import PrefixTreeEncoderSpec._
    val sequences = Gen.listOfN(4, largeTables).map(_.sortBy(order))
    val prop = Prop.forAllNoShrink(sequences) { bs =>
      val tables = new PrefixTreeEncoder.Tables
      bs.zipWithIndex.map { case (b, k) =>
        matchesReference(b, PrefixTreeEncoder.encode(_, tables)) :| s"table $k"
      }.reduce(_ && _)
    }
    check(prop, 50)
  }

  test("encoding a large table, then smaller ones, on the reused tables matches the reference every time (ScalaCheck)") {
    // Largest first, so each later table is encoded on slots the first one
    // grew and filled.
    onReusedTables(b => -b.map(_.length).sum)
  }

  test("encoding small tables, then larger ones, on the reused tables matches the reference every time (ScalaCheck)") {
    // Smallest first, from new tables of 16 slots, so the first call grows
    // them, and each later call creates more nodes than the one before it
    // and grows them again.
    onReusedTables(b => b.map(_.length).sum)
  }
}

object PrefixTreeEncoderSpec {
  /** A pair's identity in the tree: its column and the raw bits of its value. */
  def key(cv: ColValue): (Int, Long) = (cv.col, java.lang.Double.doubleToRawLongBits(cv.value))

  /** Algorithm 1 as §3.1 states it, on immutable maps: `I` (the unique
    * pairs in first-occurrence order, node k+1 for `I(k)`) and `D` (each
    * tuple's codes). LongestMatchFromTree walks the children of the
    * current node from the tuple's next pair; AddNode gives the match plus
    * the pair after it the next free node, unless the tuple ended.
    */
  def reference(b: Array[Array[ColValue]]): (Vector[ColValue], Vector[Vector[Int]]) = {
    val (firstLayer, i) = b.toVector.flatten.foldLeft((Map.empty[(Int, Long), Int], Vector.empty[ColValue])) {
      case ((nodes, i), cv) => if (nodes.contains(key(cv))) (nodes, i) else (nodes.updated(key(cv), i.length + 1), i :+ cv)
    }
    var children = Map.empty[(Int, (Int, Long)), Int]
    var next = i.length + 1
    val d = b.toVector.map { t =>
      var codes = Vector.empty[Int]
      var from = 0
      while (from < t.length) {
        var node = firstLayer(key(t(from)))
        var to = from + 1
        while (to < t.length && children.contains((node, key(t(to))))) { node = children((node, key(t(to)))); to += 1 }
        if (to < t.length) { children = children.updated((node, key(t(to))), next); next += 1 }
        codes :+= node
        from = to
      }
      codes
    }
    (i, d)
  }

  /** `encode` on `b` gives [[reference]]'s `I` and `D`, and the
    * dictionary of `b`'s distinct values in first-occurrence order.
    */
  def matchesReference(b: Array[Array[ColValue]],
                       encode: Array[SparseRow] => LogicalEncoded = PrefixTreeEncoder.encode(_)): Prop = {
    def bits(a: Seq[Double]): Seq[Long] = a.map(java.lang.Double.doubleToRawLongBits)
    val (i, d) = reference(b)
    val dict = bits(b.toSeq.flatten.map(_.value)).distinct
    val enc = encode(sparse(b))
    (enc.i.cols.toSeq == i.map(_.col)) :| "I's columns" &&
    (bits(enc.i.dict.toSeq) == dict) :| "dict" &&
    (enc.i.valIdx.toSeq == i.map(cv => dict.indexOf(key(cv)._2))) :| "I's value indexes" &&
    (enc.tokens.toSeq == d.flatten) :| "tokens" &&
    (enc.rowStarts.toSeq == d.scanLeft(0)(_ + _.length).init) :| "rowStarts"
  }

  /** Doubles whose raw bits share their low 32 bits (all zero: small
    * integers and halves, or a high word alone), and every special value.
    */
  val value: Gen[Double] = Gen.frequency(
    4 -> Gen.choose(1, 40).map(_ * 0.5),
    2 -> Gen.choose(1, 1 << 20).map(h => java.lang.Double.longBitsToDouble(h.toLong << 32)),
    2 -> Gen.oneOf(-0.0, Double.NaN, java.lang.Double.longBitsToDouble(0x7ff8000000000001L),
      Double.PositiveInfinity, Double.NegativeInfinity, Double.MinPositiveValue,
      java.lang.Double.longBitsToDouble(0x000fffffffffffffL)),
    1 -> Gen.choose(-1e3, 1e3))

  /** Tables from empty up to 300 tuples of 60 pairs, enough distinct pairs
    * and tree nodes for the tables to double many times. Columns come from
    * a pool of up to 2000 and values from one of up to 400, so the same
    * value index meets many columns (first-layer keys agreeing in their
    * low 32 bits) and the same pair follows many nodes (child keys
    * agreeing in theirs). About one tuple in eight is empty.
    */
  val largeTables: Gen[Array[Array[ColValue]]] =
    tables(Gen.oneOf(Gen.const((c: Int) => c), Gen.const((c: Int) => c << 20)))

  /** [[largeTables]] with the plain column mapping alone, whose columns
    * (under 2000) a TOC header may claim.
    */
  val plainTables: Gen[Array[Array[ColValue]]] = tables(Gen.const((c: Int) => c))

  /** [[largeTables]]' draws, each column written through a mapping drawn from `columnMapping`. */
  def tables(columnMapping: Gen[Int => Int]): Gen[Array[Array[ColValue]]] = for {
    numCols <- Gen.frequency(1 -> Gen.choose(1, 8), 2 -> Gen.choose(9, 2000))
    columns <- columnMapping
    values <- Gen.choose(1, 400).flatMap(n => Gen.containerOfN[Array, Double](n, value))
    rows <- Gen.frequency(1 -> Gen.choose(0, 3), 3 -> Gen.choose(4, 300))
    b <- Gen.containerOfN[Array, Array[ColValue]](rows, Gen.frequency(
      1 -> Gen.const(Array.empty[ColValue]),
      7 -> Gen.choose(1, 60).flatMap(len => Gen.containerOfN[Array, ColValue](len,
        for (c <- Gen.choose(0, numCols - 1); v <- Gen.oneOf(values.toSeq)) yield ColValue(columns(c), v)))))
  } yield b
}
