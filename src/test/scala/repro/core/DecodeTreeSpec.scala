package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.SparseRowPropertySpec
import repro.core.TocViews._
import repro.data.Datasets

/** Algorithm 2 checked against Table 4 (the example C') and the §4
  * identities, on the paper's full tree ([[TocViews.referenceTree]]); and
  * the kept tree main builds ([[DecodeTree.buildFromPhysical]]) checked
  * against it.
  */
class DecodeTreeSpec extends AnyFunSuite {
  import DecodeTreeSpec.rootChildrenFault

  def tableB: Array[Array[ColValue]] = Fig3.tableB

  test("Table 4: C' reproduces the documented keys exactly") {
    val enc = PrefixTreeEncoder.encode(sparse(tableB))
    val c = TocViews.tree(enc)
    assert(c.size == 11)
    val wantKeys = Seq(null,
      ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0), ColValue(4, 1.4), ColValue(2, 1.1),
      ColValue(2, 2.0), ColValue(3, 3.0), ColValue(4, 1.4), ColValue(3, 3.0), ColValue(3, 3.0))
    assert(c.keys.toSeq == wantKeys)
  }

  test("Table 4: C' reproduces the documented parent indexes exactly") {
    val enc = PrefixTreeEncoder.encode(sparse(tableB))
    val c = TocViews.tree(enc)
    assert(c.parents.toSeq == Seq(-1, 0, 0, 0, 0, 0, 1, 2, 3, 6, 5))
  }

  test("Table 4: the root's children are nodes 1-5") {
    val c = TocViews.tree(PrefixTreeEncoder.encode(sparse(tableB)))
    assert(c.parents.toSeq == Seq(-1, 0, 0, 0, 0, 0, 1, 2, 3, 6, 5))
    assert(c.rootChildren == 5)
  }

  test("|C'| = 1 + |I| + sum(len(D[i]) - 1) — the §4.6 size identity") {
    val enc = PrefixTreeEncoder.encode(sparse(tableB))
    val c = TocViews.tree(enc)
    val expected = 1 + enc.i.length + enc.d.map(d => math.max(0, d.length - 1)).sum
    assert(c.size == expected)
  }

  test("empty table yields a root-only tree") {
    val c = TocViews.tree(PrefixTreeEncoder.encode(Array.empty))
    assert(c.size == 1)
    assert(c.parent(0) == -1)
  }

  test("Equation 6: seq(i) = key(i) appended to seq(parent(i))") {
    val enc = PrefixTreeEncoder.encode(sparse(tableB))
    val c = TocViews.tree(enc)
    for (i <- 1 until c.size)
      assert(c.sequence(i) == c.sequence(c.parent(i)) :+ c.key(i), s"node $i")
  }

  test("Table B's kept tree: Table 4's nodes 1-6 and 8, renumbered in creation order, and D renumbered") {
    // D = [1,2,3,4] [6,3] [5,8] [6] names nodes 1-6 and 8; node 8 becomes 7.
    val c = DecodeTree.buildFromPhysical(TocViews.physical(PrefixTreeEncoder.encode(sparse(tableB))))
    assert(c.size == 8)
    assert(c.keys.toSeq == Seq(null,
      ColValue(1, 1.1), ColValue(2, 2.0), ColValue(3, 3.0), ColValue(4, 1.4), ColValue(2, 1.1),
      ColValue(2, 2.0), ColValue(4, 1.4)))
    assert(c.parents.toSeq == Seq(-1, 0, 0, 0, 0, 0, 1, 3))
    assert(codeRows(c.codes, Array(0, 4, 6, 8)).map(_.toSeq).toSeq ==
      Seq(Seq(1, 2, 3, 4), Seq(6, 3), Seq(5, 7), Seq(6)))
  }

  /** Tables as §3's sparse encoding emits them: each tuple's columns ascend. */
  val ascendingTables: Gen[Array[Array[ColValue]]] = DecodeTreeSpec.ascending(PrefixTreeEncoderSpec.largeTables)

  test("the kept tree gives every code the reference's sequence, and keeps 1 + the distinct codes (ScalaCheck)") {
    /** Empty when the kept tree agrees with the reference on `p`, else what differs. */
    def disagreement(p: TocPhysical): Option[String] = {
      val kept = DecodeTree.buildFromPhysical(p)
      val ref = TocViews.referenceTree(p)
      val distinct = p.tokens.distinct.length
      if (kept.size != 1 + distinct) return Some(s"size ${kept.size}, distinct codes $distinct")
      if (kept.codes.length != p.tokens.length) return Some("codes and tokens differ in length")
      for (i <- 1 until kept.size if kept.parents(i) < 0 || kept.parents(i) >= i)
        return Some(s"node $i has parent ${kept.parents(i)}")
      for (j <- p.tokens.indices) {
        // Walk both chains leaf to root in step, comparing columns and raw bits.
        var a = kept.codes(j); var b = p.tokens(j)
        while (a != 0 && b != 0 && kept.keyCols(a) == ref.keyCols(b) &&
          java.lang.Double.doubleToRawLongBits(kept.keyVals(a)) == java.lang.Double.doubleToRawLongBits(ref.keyVals(b))) {
          a = kept.parents(a); b = ref.parents(b)
        }
        if (a != 0 || b != 0) return Some(s"position $j: kept node ${kept.codes(j)} vs reference node ${p.tokens(j)}")
      }
      None
    }
    val prop = Prop.forAllNoShrink(ascendingTables) { b =>
      val d = disagreement(TocViews.physical(PrefixTreeEncoder.encode(sparse(b))))
      Prop(d.isEmpty) :| d.getOrElse("")
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
    for (spec <- Datasets.all; batch <- 0 until 2) {
      val (x, _) = Datasets.slice(spec, batch * 250L, 250)
      val d = disagreement(TocEncoder.encode(x).physical)
      assert(d.isEmpty, s"${spec.name} batch $batch: ${d.getOrElse("")}")
    }
  }

  test("the root's children are the first-layer nodes a code names, and every later node's parent is in 1..i−1, on generated tables (ScalaCheck)") {
    val prop = Prop.forAllNoShrink(ascendingTables) { b =>
      val p = TocViews.physical(PrefixTreeEncoder.encode(sparse(b)))
      val ref = TocViews.referenceTree(p)
      val f = rootChildrenFault(p, DecodeTree.buildFromPhysical(p))
      (f.isEmpty :| f.getOrElse("")) &&
        (ref.rootChildren == p.iCols.length) :| s"the reference tree's root has ${ref.rootChildren} children, |I| = ${p.iCols.length}" &&
        (ref.rootChildren + 1 until ref.size).forall(i => ref.parents(i) >= 1 && ref.parents(i) < i) :| "a reference node's parent"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("every TOC buffer that parses and builds, valid or corrupted as CorruptBytesPropertySpec corrupts it, has that root-children layout (ScalaCheck)") {
    // The valid bytes, one bit flipped, a truncation and random bytes of
    // each batch, as in CorruptBytesPropertySpec, and Algorithm 1's bytes
    // of its generated tables, whose columns may repeat or descend.
    val plain = PrefixTreeEncoderSpec.plainTables
    var corruptBuilt = 0
    val prop = Prop.forAllNoShrink(SparseRowPropertySpec.cases, Gen.oneOf(plain, DecodeTreeSpec.ascending(plain)), Gen.long) {
      (t, b, seed) =>
        val rng = new java.util.Random(seed)
        val valid = TocEncoder.encode(t.a).toBytes
        val flipped = valid.clone()
        val bit = rng.nextInt(8 * valid.length)
        flipped(bit / 8) = (flipped(bit / 8) ^ (1 << bit % 8)).toByte
        val random = new Array[Byte](rng.nextInt(2 * valid.length))
        rng.nextBytes(random)
        val buffers = Seq("valid" -> valid, s"bit $bit flipped" -> flipped, "truncated" -> valid.take(rng.nextInt(valid.length)),
          "random" -> random, "Algorithm 1's" -> TocViews.physical(PrefixTreeEncoder.encode(sparse(b))).toBytes)
        Prop.all(buffers.map { case (label, in) =>
          val f = try {
            val p = TocPhysical.fromBytes(in)
            val c = DecodeTree.buildFromPhysical(p)
            if (in ne valid) corruptBuilt += 1
            rootChildrenFault(p, c)
          } catch { case _: CorruptBatchException => None }
          f.isEmpty :| s"$label: ${f.getOrElse("")}"
        }: _*)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
    info(s"$corruptBuilt corrupted or Algorithm 1 buffers built a tree, of ${4 * result.succeeded}")
    assert(corruptBuilt > 0)
  }

  test("a table with a repeated or descending column in some tuple is rejected by the kept tree's build (ScalaCheck)") {
    // Arbitrary tables, which Algorithm 1 encodes losslessly but no matrix
    // gives, and ascending ones: the build throws exactly when some tuple's
    // columns do not ascend.
    val prop = Prop.forAllNoShrink(Gen.oneOf(PrefixTreeEncoderSpec.largeTables, ascendingTables)) { b =>
      val ascending = b.forall(t => t.indices.drop(1).forall(j => t(j - 1).col < t(j).col))
      val p = TocViews.physical(PrefixTreeEncoder.encode(sparse(b)))
      val threw = try { DecodeTree.buildFromPhysical(p); false } catch { case _: CorruptBatchException => true }
      Prop(threw != ascending) :| s"ascending $ascending, threw $threw"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(2019L), prop)
    assert(result.passed, Pretty.pretty(result))
  }
}

object DecodeTreeSpec {
  /** Empty when `c`, the kept tree of `p`, has `k` = `c.rootChildren` equal
    * to the first-layer nodes `p`'s codes name (1..|I|), nodes 1..k with
    * the root as parent and every later node `i` with a parent in 1..i−1;
    * else what differs.
    */
  def rootChildrenFault(p: TocPhysical, c: DecodeTree): Option[String] = {
    val k = c.rootChildren
    val named = p.tokens.filter(_ <= p.iCols.length).distinct.length
    if (k != named) Some(s"the root has $k children, the codes name $named first-layer nodes")
    else (1 to k).find(c.parents(_) != 0).map(i => s"node $i of 1..$k has parent ${c.parents(i)}")
      .orElse((k + 1 until c.size).find(i => c.parents(i) < 1 || c.parents(i) >= i)
        .map(i => s"node $i above $k has parent ${c.parents(i)}"))
  }

  /** `tables` with each tuple's columns made to ascend: a repeated column kept once, then sorted. */
  def ascending(tables: Gen[Array[Array[ColValue]]]): Gen[Array[Array[ColValue]]] =
    tables.map(_.map(t => t.distinctBy(_.col).sortBy(_.col)))
}
