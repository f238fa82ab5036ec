package repro.core

import java.nio.{ByteBuffer, ByteOrder}
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TocViews._
import repro.data.Datasets
import repro.linalg.DenseMatrix

class TocPhysicalSpec extends AnyFunSuite {

  def physFor(rows: Array[Array[ColValue]], numCols: Int): TocPhysical =
    TocPhysical.encode(rows.length, numCols, PrefixTreeEncoder.encode(sparse(rows)))

  test("Figure 3: value dictionary holds the distinct values in first-occurrence order") {
    val p = physFor(Fig3.tableB, 5)
    assert(p.dict.toSeq == Seq(1.1, 2.0, 3.0, 1.4))
  }

  test("Figure 3: I's column indexes and value indexes reproduce the figure") {
    val p = physFor(Fig3.tableB, 5)
    assert(p.iCols.toSeq == Seq(1, 2, 3, 4, 2))
    assert(p.iValIdx.toSeq == Seq(0, 1, 2, 3, 0)) // [1.1, 2, 3, 1.4, 1.1]
  }

  test("Figure 3: D's tokens concatenate the tuple codes; rowStarts delimit them") {
    val p = physFor(Fig3.tableB, 5)
    assert(p.tokens.toSeq == Seq(1, 2, 3, 4, 6, 3, 5, 8, 6))
    assert(p.rowStarts.toSeq == Seq(0, 4, 6, 8))
  }

  test("iPairs/dRows reconstruct the logical outputs") {
    val logical = PrefixTreeEncoder.encode(sparse(Fig3.tableB))
    val p = TocPhysical.encode(4, 5, logical)
    assert(p.iPairs.toSeq == logical.i.pairs.toSeq)
    assert(p.dRows.map(_.toSeq).toSeq == logical.d.map(_.toSeq).toSeq)
  }

  test("sizeBytes equals the serialized length exactly") {
    val p = physFor(Fig3.tableB, 5)
    assert(p.toBytes.length.toLong == p.sizeBytes)
  }

  test("toBytes/fromBytes round-trips every field") {
    val p = physFor(Fig3.tableB, 5)
    val q = TocPhysical.fromBytes(p.toBytes)
    assert(q.numRows == p.numRows && q.numCols == p.numCols)
    assert(q.dict.toSeq == p.dict.toSeq)
    assert(q.iCols.toSeq == p.iCols.toSeq)
    assert(q.iValIdx.toSeq == p.iValIdx.toSeq)
    assert(q.tokens.toSeq == p.tokens.toSeq)
    assert(q.rowStarts.toSeq == p.rowStarts.toSeq)
  }

  test("randomized physical round-trip") {
    val rng = new scala.util.Random(31337)
    for (trial <- 1 to 30) {
      val rows = Array.fill(rng.nextInt(30) + 1) {
        rng.shuffle((0 until 40).toList).take(rng.nextInt(12)).sorted
          .map(j => ColValue(j, (rng.nextInt(7) + 1) * 0.5)).toArray
      }
      val p = physFor(rows, 40)
      val q = TocPhysical.fromBytes(p.toBytes)
      assert(q.dRows.map(_.toSeq).toSeq == p.dRows.map(_.toSeq).toSeq, s"trial $trial")
      assert(q.iPairs.toSeq == p.iPairs.toSeq, s"trial $trial")
      assert(p.toBytes.length.toLong == p.sizeBytes, s"trial $trial")
    }
  }

  def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map("%02x".format(_)).mkString

  /** Batch → (length, SHA-256) of its TOC bytes. */
  lazy val pinned: Seq[(String, DenseMatrix, Int, String)] = {
    val rng = new scala.util.Random(2019)
    val cols = 40
    val base = Array.fill(20, cols)(if (rng.nextDouble() < 0.4) (rng.nextInt(300) + 1) * 0.25 else 0.0)
    val data = Array.tabulate(250) { _ =>
      val row = base(rng.nextInt(20)).clone()
      row(rng.nextInt(cols)) = (rng.nextInt(300) + 1) * 0.25
      row
    }.flatten
    Seq(
      ("fixed", new DenseMatrix(250, cols, data), 7016,
        "397ed98c1fa06df96d99a6a63b707fe624acf9bad23f8361330e49cd7bb39ccb"),
      ("census-like", Datasets.slice(Datasets.census, 0, 250)._1, 5466,
        "dce972c56b801fa9f9bc4d180b33f61eb4135d76bb43d6b4b102ce3394e0391d"),
      ("imagenet-like", Datasets.slice(Datasets.imagenet, 0, 250)._1, 63762,
        "d3fb7647511401835087c30095fd977d80bd3b2b7fc4943d2758f93ff30057a7"),
      ("mnist-like", Datasets.slice(Datasets.mnist, 0, 250)._1, 105436,
        "942835204a853fdf1ac3bddbc0faf35ef1999c6ed28ae052c0d40f6b0b84c32b"),
      ("kdd99-like", Datasets.slice(Datasets.kdd99, 0, 250)._1, 2104,
        "8497c2cf5cea90fa0a460ffe67dcab939d3f900807fa79fc51b9c95c30c00a9f"),
      ("rcv1-like", Datasets.slice(Datasets.rcv1, 0, 250)._1, 22986,
        "89e305c6bdc8f516c07820969a82bfd2826247dd38a853d12d0e5816c395d400"),
      // All-unique values: the longest dictionary.
      ("deep1b-like", Datasets.slice(Datasets.deep1b, 0, 250)._1, 310171,
        "831bb8bd3a15311e075f99571f8b0e123cb1cce93bd0142300c1727e5ff017a0"))
  }

  test("the bytes of a fixed batch keep the §3.2 layout (pinned SHA-256)") {
    for ((label, batch, length, sha) <- pinned) {
      val bytes = TocEncoder.encode(batch).toBytes
      assert(bytes.length == length, label)
      assert(sha256(bytes) == sha, label)
    }
  }

  test("4 threads encoding the imagenet- and mnist-like slices at once each get the pinned bytes") {
    // The threads contend for Algorithm 1's one spare set of tables; a call
    // that finds it taken encodes on tables of its own, whose first-child
    // array grows within the call. The mnist-like slice creates more tree
    // nodes than the imagenet-like one, so a set given back after one is
    // reused by the other over first-child slots it set and cleared.
    val slices = pinned.filter(p => p._1 == "imagenet-like" || p._1 == "mnist-like")
    val rounds = 10
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val done = new java.util.concurrent.atomic.AtomicInteger
    val threads = (0 until 4).map { t =>
      new Thread(() =>
        for (round <- 0 until rounds) {
          val (label, batch, length, sha) = slices((t + round) % 2)
          try {
            val bytes = TocEncoder.encode(batch).toBytes
            if (bytes.length != length || sha256(bytes) != sha) failures.add(s"thread $t round $round: $label bytes differ")
          } catch { case e: Exception => failures.add(s"thread $t round $round: $label threw $e") }
          done.incrementAndGet()
        })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(failures.isEmpty, failures)
    assert(done.get == 4 * rounds)
  }

  test("a header claiming Int.MaxValue dictionary entries throws CorruptBatchException, not OutOfMemoryError") {
    val header = ByteBuffer.allocate(12).order(ByteOrder.LITTLE_ENDIAN).putInt(1).putInt(1).putInt(Int.MaxValue).array()
    intercept[CorruptBatchException](TocPhysical.fromBytes(header))
  }

  test("a TOC buffer with a value index equal to the dictionary's length throws CorruptBatchException") {
    // I = [(0, 1.0), (1, 2.0), (2, 3.0)] and one row [1, 2, 3]; index 3 names no value.
    def bytes(lastValIdx: Int): Array[Byte] =
      TocPhysical(1, 3, Array(1.0, 2.0, 3.0), Array(0, 1, 2), Array(0, 1, lastValIdx), Array(1, 2, 3), Array(0)).toBytes
    assert(TocEncoder.fromBytes(bytes(2)).decode.data.toSeq == Seq(1.0, 2.0, 3.0))
    intercept[CorruptBatchException](TocEncoder.fromBytes(bytes(3)))
  }

  test("tables with all-zero rows keep row boundaries") {
    val rows: Array[Array[ColValue]] =
      Array(Array(ColValue(0, 1.0)), Array.empty, Array(ColValue(1, 2.0)), Array.empty)
    val p = physFor(rows, 3)
    assert(p.dRows.map(_.length).toSeq == Seq(1, 0, 1, 0))
    val q = TocPhysical.fromBytes(p.toBytes)
    assert(q.dRows.map(_.length).toSeq == Seq(1, 0, 1, 0))
  }
}
