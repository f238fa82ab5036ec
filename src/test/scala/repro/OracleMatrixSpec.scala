package repro

import org.apache.spark.sql.DataFrame
import repro.core.TocEncoder
import repro.data.Datasets

/** Ties the compressed kernels to an independent SQL oracle: the same
  * multiplications expressed as relational aggregates over a COO triple
  * table are checked Spark-vs-DuckDB (Oracle.assertEquivalent) and
  * against the TOC kernel results.
  */
class OracleMatrixSpec extends SparkSpec {

  lazy val (x, _) = Datasets.slice(Datasets.census, 0, 60)
  lazy val vRight: Array[Double] = Array.tabulate(x.cols)(j => math.sin(j + 1.0))
  lazy val vLeft: Array[Double] = Array.tabulate(x.rows)(i => math.cos(i + 1.0))

  def cooDf: DataFrame = {
    import spark.implicits._
    (for {
      i <- 0 until x.rows
      j <- 0 until x.cols
      if x(i, j) != 0.0
    } yield (i, j, x(i, j))).toDF("i", "j", "v")
  }

  def vecDf(v: Array[Double]): DataFrame = {
    import spark.implicits._
    v.zipWithIndex.map { case (w, j) => (j, w) }.toSeq.toDF("j", "w")
  }

  test("A·v as a relational aggregate: Spark matches DuckDB") {
    val coo = cooDf; val vec = vecDf(vRight)
    coo.createOrReplaceTempView("coo"); vec.createOrReplaceTempView("vec")
    val sql =
      """SELECT i, SUM(CAST(v AS DOUBLE) * CAST(w AS DOUBLE)) AS r
        |FROM coo JOIN vec ON coo.j = vec.j GROUP BY i""".stripMargin
    Oracle.assertEquivalent(spark.sql(sql), sql, "coo" -> coo, "vec" -> vec)
  }

  test("A·v: the SQL result equals the TOC compressed kernel") {
    val coo = cooDf; val vec = vecDf(vRight)
    coo.createOrReplaceTempView("coo"); vec.createOrReplaceTempView("vec")
    val sqlResult = spark.sql(
      """SELECT i, SUM(v * w) AS r FROM coo JOIN vec ON coo.j = vec.j GROUP BY i""")
      .collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
    val kernel = TocEncoder.encode(x).timesVector(vRight)
    for (i <- 0 until x.rows)
      assert(math.abs(kernel(i) - sqlResult.getOrElse(i, 0.0)) < 1e-9, s"row $i")
  }

  test("v·A as a relational aggregate: Spark matches DuckDB") {
    val coo = cooDf; val vec = {
      import spark.implicits._
      vLeft.zipWithIndex.map { case (w, i) => (i, w) }.toSeq.toDF("i", "w")
    }
    coo.createOrReplaceTempView("coo2"); vec.createOrReplaceTempView("rvec")
    val sql =
      """SELECT coo2.j AS j, SUM(CAST(v AS DOUBLE) * CAST(w AS DOUBLE)) AS r
        |FROM coo2 JOIN rvec ON coo2.i = rvec.i GROUP BY coo2.j""".stripMargin
    Oracle.assertEquivalent(spark.sql(sql), sql, "coo2" -> coo, "rvec" -> vec)
  }

  test("v·A: the SQL result equals the TOC compressed kernel") {
    val coo = cooDf
    import spark.implicits._
    val vec = vLeft.zipWithIndex.map { case (w, i) => (i, w) }.toSeq.toDF("i", "w")
    coo.createOrReplaceTempView("coo3"); vec.createOrReplaceTempView("rvec3")
    val sqlResult = spark.sql(
      """SELECT coo3.j AS j, SUM(v * w) AS r FROM coo3 JOIN rvec3 ON coo3.i = rvec3.i GROUP BY coo3.j""")
      .collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
    val kernel = TocEncoder.encode(x).vectorTimes(vLeft)
    for (j <- 0 until x.cols)
      assert(math.abs(kernel(j) - sqlResult.getOrElse(j, 0.0)) < 1e-9, s"col $j")
  }

  test("dataset sparsity aggregate: Spark matches DuckDB and the direct measure") {
    val coo = cooDf
    coo.createOrReplaceTempView("coo4")
    val sql = "SELECT COUNT(*) AS nnz FROM coo4"
    Oracle.assertEquivalent(spark.sql(sql), sql, "coo4" -> coo)
    val nnz = spark.sql(sql).collect().head.getLong(0)
    assert(math.abs(nnz.toDouble / (x.rows * x.cols) - x.sparsity) < 1e-12)
  }

  test("per-column nnz profile: Spark matches DuckDB") {
    val coo = cooDf
    coo.createOrReplaceTempView("coo5")
    val sql = "SELECT j, COUNT(*) AS c FROM coo5 GROUP BY j"
    Oracle.assertEquivalent(spark.sql(sql), sql, "coo5" -> coo)
  }
}
