package repro.sparkml

import repro.SparkSpec
import repro.data.Datasets
import repro.linalg.Encodings
import repro.mgd._

/** Distributed MGD: per-partition sequential training + model averaging. */
class SparkMgdSpec extends SparkSpec {

  def encodedBatches(rows: Int, partitions: Int, method: String = "TOC") = {
    val df = SparkMiniBatch.generateDf(spark, Datasets.census, rows, partitions)
    SparkMiniBatch.encodeBatches(df, batchSize = 100, method)
  }

  test("single partition: Spark training equals local sequential MGD exactly") {
    val rows = 400
    val sparkRes = SparkMgd.train(encodedBatches(rows, 1), new LogisticRegression(68), 0.1, 2)
    val (x, y) = Datasets.slice(Datasets.census, 0, rows)
    val localBatches = Mgd.makeBatches(x, y, 100, Encodings.byName("TOC"))
    val localRes = Mgd.train(localBatches, new LogisticRegression(68), 0.1, 2)
    sparkRes.model.params.zip(localRes.model.params).foreach { case (s, l) =>
      assert(math.abs(s - l) < 1e-10, "single-partition Spark must equal sequential MGD")
    }
    assert(sparkRes.lossPerEpoch.length == 2 && localRes.lossPerEpoch.length == 2)
    sparkRes.lossPerEpoch.zip(localRes.lossPerEpoch).foreach { case (s, l) =>
      assert(math.abs(s - l) < 1e-10, "both drivers record the same per-epoch loss")
    }
  }

  test("multi-partition LR training decreases loss per epoch") {
    val batches = encodedBatches(1200, 4).cache()
    try {
      val res = SparkMgd.train(batches, new LogisticRegression(68), 0.1, 3)
      assert(res.lossPerEpoch.length == 3)
      assert(res.lossPerEpoch.head > res.lossPerEpoch.last)
    } finally batches.unpersist()
  }

  test("multi-partition SVM training decreases loss") {
    val batches = encodedBatches(1200, 4).cache()
    try {
      val model = new Svm(68)
      val before = SparkMgd.meanLoss(batches, model)
      val res = SparkMgd.train(batches, model, 0.05, 2)
      assert(SparkMgd.meanLoss(batches, res.model) < before)
    } finally batches.unpersist()
  }

  test("multi-partition NN training decreases loss (model averaging)") {
    val batches = encodedBatches(800, 4).cache()
    try {
      val model = new NeuralNet(68, 16, 8, 2)
      val before = SparkMgd.meanLoss(batches, model)
      val res = SparkMgd.train(batches, model, 0.3, 2)
      assert(SparkMgd.meanLoss(batches, res.model) < before)
    } finally batches.unpersist()
  }

  test("averaging weights partitions by row count") {
    // Partitions of 100 and 300 rows, each stepped from the same start
    // model: the average is their row-weighted mean, not their plain mean.
    val rows = encodedBatches(400, 1).collect().sortBy(_.batch_id)
    val parts = Seq(rows.take(1).toSeq, rows.drop(1).toSeq)
    import spark.implicits._
    val batches = spark.sparkContext.parallelize(parts, 2).flatMap(identity).toDS()
    val start = new LogisticRegression(68)
    val out = SparkMgd.trainEpoch(batches, start, 0.1).params
    val (p, stepped) = parts.map { part =>
      val m = start.copyModel
      val n = Mgd.epoch(part.iterator.map(SparkMiniBatch.decodeBatch), m, 0.1)
      (m.params, n)
    }.unzip
    assert(stepped == Seq(100L, 300L))
    val weighted = p(0).indices.map(i => 0.25 * p(0)(i) + 0.75 * p(1)(i))
    val plain = p(0).indices.map(i => 0.5 * (p(0)(i) + p(1)(i)))
    assert(out.indices.forall(i => math.abs(out(i) - weighted(i)) <= 1e-12))
    assert(out.indices.exists(i => math.abs(out(i) - plain(i)) > 1e-12))
  }

  test("meanLoss agrees with local mean loss on the same data") {
    val batches = encodedBatches(400, 1)
    val model = new LogisticRegression(68)
    val sparkLoss = SparkMgd.meanLoss(batches, model)
    val (x, y) = Datasets.slice(Datasets.census, 0, 400)
    val localLoss = Mgd.meanLoss(Mgd.makeBatches(x, y, 100, Encodings.byName("TOC")), model)
    assert(math.abs(sparkLoss - localLoss) < 1e-10)
  }

  private def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)

  test("meanLoss sums the partitions in partition order: the same bits on every call") {
    val batches = encodedBatches(1200, 4).cache()
    try {
      val model = new LogisticRegression(68)
      val got = Seq.fill(5)(bits(SparkMgd.meanLoss(batches, model)))
      assert(got.distinct.size == 1)
      val parts = batches.rdd.glom().collect()
      assert(parts.length == 4 && parts.forall(_.nonEmpty))
      val sums = parts.map(p => Mgd.lossSum(p.iterator.map(SparkMiniBatch.decodeBatch), model))
      assert(got.head == bits(sums.map(_._1).sum / sums.map(_._2).sum))
    } finally batches.unpersist()
  }

  test("an empty partition changes no bit of trainEpoch or meanLoss") {
    // The same 4 batches in 3 partitions, then in 6 with 3 of them empty
    // (more partitions than batches).
    val rows = encodedBatches(400, 1).collect().sortBy(_.batch_id)
    assert(rows.length == 4)
    import spark.implicits._
    def ds(parts: Seq[Seq[EncodedBatchRow]]) = spark.sparkContext.parallelize(parts, parts.size).flatMap(identity).toDS()
    val dense = ds(Seq(rows.take(1).toSeq, rows.slice(1, 3).toSeq, rows.drop(3).toSeq))
    val gappy = ds(Seq(rows.take(1).toSeq, Nil, rows.slice(1, 3).toSeq, Nil, Nil, rows.drop(3).toSeq))
    assert(gappy.rdd.glom().collect().count(_.isEmpty) == 3)
    val start = new LogisticRegression(68)
    val (a, b) = (SparkMgd.trainEpoch(dense, start, 0.1), SparkMgd.trainEpoch(gappy, start, 0.1))
    assert(a.params.map(bits).toSeq == b.params.map(bits).toSeq)
    assert(bits(SparkMgd.meanLoss(dense, a)) == bits(SparkMgd.meanLoss(gappy, a)))
  }

  test("trainEpoch and meanLoss reject a dataset with no rows") {
    import spark.implicits._
    for (empty <- Seq(spark.emptyDataset[EncodedBatchRow], spark.sparkContext.parallelize(Seq.empty[EncodedBatchRow], 3).toDS())) {
      intercept[IllegalArgumentException](SparkMgd.trainEpoch(empty, new LogisticRegression(68), 0.1))
      intercept[IllegalArgumentException](SparkMgd.meanLoss(empty, new LogisticRegression(68)))
    }
  }

  test("TOC and DEN Spark training produce the same averaged model") {
    val toc = SparkMgd.train(encodedBatches(600, 2, "TOC"), new LogisticRegression(68), 0.1, 2)
    val den = SparkMgd.train(encodedBatches(600, 2, "DEN"), new LogisticRegression(68), 0.1, 2)
    toc.model.params.zip(den.model.params).foreach { case (t, d) =>
      assert(math.abs(t - d) < 1e-8)
    }
  }
}
