package repro.sparkml

import repro.SparkSpec
import repro.core.{CorruptBatchException, TocEncoder}
import repro.data.Datasets
import repro.linalg.{Encodings, MatrixCodec}
import repro.mgd.Mgd

/** Spark-side generation and per-partition encoding. */
class SparkMiniBatchSpec extends SparkSpec {

  test("generateDf produces exactly the same rows as the local generator") {
    val df = SparkMiniBatch.generateDf(spark, Datasets.census, 200, numPartitions = 4)
    import spark.implicits._
    val collected = df.as[(Long, Seq[Double], Double)].collect().sortBy(_._1)
    val (localX, localY) = Datasets.slice(Datasets.census, 0, 200)
    assert(collected.length == 200)
    collected.foreach { case (id, feats, lbl) =>
      assert(feats == localX.row(id.toInt).toSeq, s"row $id features")
      assert(lbl == localY(id.toInt), s"row $id label")
    }
  }

  for (method <- Seq("TOC", "DEN", "CSR")) {
    test(s"encodeBatches($method): batches decode back to the generated rows") {
      val df = SparkMiniBatch.generateDf(spark, Datasets.kdd99, 300, numPartitions = 2)
      val batches = SparkMiniBatch.encodeBatches(df, batchSize = 100, method).collect()
      assert(batches.map(_.n).sum == 300)
      // Every encoded row must decode to a generated dataset row (with its label).
      val ctx = new Datasets.GenContext(Datasets.kdd99)
      val expectRows = (0L until 300L).map { i =>
        val x = Datasets.row(ctx, i)
        (x.toSeq, Datasets.label(ctx, i, x))
      }.toSet
      batches.foreach { b =>
        val mb = SparkMiniBatch.decodeBatch(b)
        val dense = mb.x.decode
        for (i <- 0 until mb.size)
          assert(expectRows.contains((dense.row(i).toSeq, mb.y(i))), s"batch ${b.batch_id} row $i")
      }
    }
  }

  test("encodeBatches(TOC) on 4 partitions gives each batch the bytes of a sequential TocEncoder.encode") {
    // The 4 tasks may encode at once and share Algorithm 1's spare tables.
    val df = SparkMiniBatch.generateDf(spark, Datasets.imagenet, 1000, numPartitions = 4).cache()
    try {
      val firstId = df.rdd.mapPartitionsWithIndex((pid, it) => it.take(1).map(r => pid -> r.getLong(0))).collect().toMap
      val batchSize = 100
      val batches = SparkMiniBatch.encodeBatches(df, batchSize, "TOC").collect()
      assert(batches.map(_.n).sum == 1000)
      assert(firstId.size == 4)
      for (b <- batches) {
        val from = firstId((b.batch_id >>> 32).toInt) + (b.batch_id & 0xffffffffL) * batchSize
        val want = MatrixCodec.serialize(TocEncoder.encode(Datasets.slice(Datasets.imagenet, from, b.n)._1))
        assert(java.util.Arrays.equals(b.x, want), s"batch ${b.batch_id}")
      }
    } finally df.unpersist()
  }

  /** A 3-row census-like TOC batch as its Spark row. */
  def censusRow(): EncodedBatchRow = {
    val (x, y) = Datasets.slice(Datasets.census, 0, 3)
    EncodedBatchRow(0L, 3, MatrixCodec.serialize(TocEncoder.encode(x)), y)
  }

  test("decodeBatch: a row whose labels lost one throws CorruptBatchException") {
    val row = censusRow()
    assert(SparkMiniBatch.decodeBatch(row).size == 3)
    intercept[CorruptBatchException](SparkMiniBatch.decodeBatch(row.copy(y = row.y.dropRight(1))))
  }

  test("decodeBatch: a row whose n disagrees with its decoded rows throws CorruptBatchException") {
    val row = censusRow()
    intercept[CorruptBatchException](SparkMiniBatch.decodeBatch(row.copy(n = 4)))
    intercept[CorruptBatchException](SparkMiniBatch.decodeBatch(row.copy(n = 2)))
  }

  test("batch ids are unique and batches respect the batch size") {
    val df = SparkMiniBatch.generateDf(spark, Datasets.census, 500, numPartitions = 3)
    val batches = SparkMiniBatch.encodeBatches(df, batchSize = 64, "TOC").collect()
    assert(batches.map(_.batch_id).distinct.length == batches.length)
    assert(batches.forall(_.n <= 64))
  }

  test("batch ids stay unique past a million batches per partition, ordered by partition then batch") {
    assert(SparkMiniBatch.batchId(0, 1000000) != SparkMiniBatch.batchId(1, 0))
    assert(SparkMiniBatch.batchId(0, Int.MaxValue) < SparkMiniBatch.batchId(1, 0))
    assert(SparkMiniBatch.batchId(1, 0) < SparkMiniBatch.batchId(1, 1))
  }

  test("encodedSizeBytes on 4 partitions equals sizeBytes + 8 per label summed over Mgd.makeBatches") {
    // 4 partitions of 250 rows, so the Spark and local batches hold the same rows.
    for (spec <- Seq(Datasets.kdd99, Datasets.imagenet)) {
      val df = SparkMiniBatch.generateDf(spark, spec, 1000, numPartitions = 4).cache()
      try {
        val (x, y) = Datasets.slice(spec, 0, 1000)
        for (method <- Seq("TOC", "CSR", "DEN")) {
          val local = Mgd.makeBatches(x, y, 125, Encodings.byName(method)).map(b => b.x.sizeBytes + 8L * b.size).sum
          assert(SparkMiniBatch.encodedSizeBytes(SparkMiniBatch.encodeBatches(df, 125, method)) == local,
            s"${spec.name} $method")
        }
      } finally df.unpersist()
    }
  }

  test("TOC batches ship their physical bytes (compact vs DEN framing)") {
    val df = SparkMiniBatch.generateDf(spark, Datasets.census, 500, numPartitions = 1).cache()
    try {
      val toc = SparkMiniBatch.encodedSizeBytes(SparkMiniBatch.encodeBatches(df, 250, "TOC"))
      val den = SparkMiniBatch.encodedSizeBytes(SparkMiniBatch.encodeBatches(df, 250, "DEN"))
      assert(toc < den / 4, s"toc=$toc den=$den")
    } finally df.unpersist()
  }
}
