package repro.core

import repro.{Oracle, SparkSpec, TestData}
import repro.al.SparkJobs
import repro.erdata.{GenConfig, MultiSourceGen}

class DistributionAnalysisSpec extends SparkSpec {

  private def hist(id: String, bins: Array[Long], std: Double = 0.2): FeatureHistogram =
    FeatureHistogram(id, 0, bins, bins.sum, 0.5, std)

  private val uniform4 = hist("u", Array(10L, 10L, 10L, 10L))
  private val pointLow = hist("p0", Array(40L, 0L, 0L, 0L))
  private val pointHigh = hist("p1", Array(0L, 0L, 0L, 40L))

  // ------------------------------------------------------------- CDF/props

  test("cdf is monotone and ends at 1") {
    val c = uniform4.cdf
    assert(c.zip(c.tail).forall { case (a, b) => a <= b })
    assert(math.abs(c.last - 1.0) < 1e-12)
  }

  test("cdf of empty histogram is all zeros") {
    assert(hist("e", Array(0L, 0L, 0L, 0L)).cdf.forall(_ == 0.0))
  }

  test("the cdf kept by a histogram equals the per-call formula, bit for bit") {
    // The formula every KS and WD comparison used to evaluate.
    def perCall(h: FeatureHistogram): Array[Double] = {
      val out = new Array[Double](h.bins.length)
      var acc = 0.0
      var i = 0
      while (i < h.bins.length) { acc += h.bins(i); out(i) = if (h.total > 0) acc / h.total else 0.0; i += 1 }
      out
    }
    val ds = TestData.camera
    val real = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures).values.flatten
    for (h <- real ++ Seq(uniform4, pointLow, pointHigh, hist("e", Array(0L, 0L, 0L, 0L)))) {
      assert(h.cdf.map(java.lang.Double.doubleToRawLongBits).toSeq ==
        perCall(h).map(java.lang.Double.doubleToRawLongBits).toSeq, s"${h.problemId} feature ${h.feature}")
      assert(h.cdf eq h.cdf)
    }
  }

  test("props are smoothed away from zero") {
    assert(pointLow.props().forall(_ >= 1e-4))
  }

  test("props sum to ~1 for well-populated histograms") {
    assert(math.abs(uniform4.props().sum - 1.0) < 1e-2)
  }

  // --------------------------------------------------------------- tests

  test("KS similarity of identical distributions is 1") {
    assert(math.abs(KS.similarity(uniform4, uniform4) - 1.0) < 1e-12)
  }

  test("KS similarity of opposite point masses is ~0") {
    assert(KS.similarity(pointLow, pointHigh) < 0.01)
  }

  test("KS is symmetric") {
    assert(math.abs(KS.similarity(uniform4, pointLow) - KS.similarity(pointLow, uniform4)) < 1e-12)
  }

  test("WD similarity of identical distributions is 1") {
    assert(math.abs(WD.similarity(uniform4, uniform4) - 1.0) < 1e-12)
  }

  test("WD similarity of opposite point masses is low") {
    assert(WD.similarity(pointLow, pointHigh) < 0.3)
  }

  test("WD is symmetric") {
    assert(math.abs(WD.similarity(uniform4, pointHigh) - WD.similarity(pointHigh, uniform4)) < 1e-12)
  }

  test("WD similarity is higher for closer distributions") {
    val near = hist("n", Array(35L, 5L, 0L, 0L))
    assert(WD.similarity(pointLow, near) > WD.similarity(pointLow, pointHigh))
  }

  test("PSI similarity of identical distributions is 1") {
    assert(math.abs(PSI.similarity(uniform4, uniform4) - 1.0) < 1e-12)
  }

  test("PSI is symmetric (the (p-q)ln(p/q) form)") {
    assert(math.abs(PSI.similarity(uniform4, pointLow) - PSI.similarity(pointLow, uniform4)) < 1e-12)
  }

  test("PSI similarity decreases with distribution shift") {
    val near = hist("n", Array(12L, 10L, 9L, 9L))
    assert(PSI.similarity(uniform4, near) > PSI.similarity(uniform4, pointHigh))
  }

  test("all test similarities are in [0,1]") {
    for (t <- DistTest.all; (a, b) <- Seq((uniform4, pointLow), (pointLow, pointHigh))) {
      val s = t.similarity(a, b)
      assert(s >= 0.0 && s <= 1.0, s"${t.name}: $s")
    }
  }

  // -------------------------------------------------- problem similarity

  test("problemSimilarity of a problem with itself is 1") {
    val hs = IndexedSeq(uniform4, hist("x", Array(5L, 10L, 15L, 10L)))
    for (t <- DistTest.all)
      assert(math.abs(DistributionAnalysis.problemSimilarity(hs, hs, t) - 1.0) < 1e-9)
  }

  test("problemSimilarity weights features by std") {
    // feature 0 identical (high std), feature 1 very different (tiny std):
    // weighting by std should keep similarity high
    val a = IndexedSeq(hist("a0", Array(10L, 10L, 10L, 10L), std = 0.4),
                       hist("a1", Array(40L, 0L, 0L, 0L), std = 0.001))
    val b = IndexedSeq(hist("b0", Array(10L, 10L, 10L, 10L), std = 0.4),
                       hist("b1", Array(0L, 0L, 0L, 40L), std = 0.001))
    val s = DistributionAnalysis.problemSimilarity(a, b, KS)
    assert(s > 0.95, s"std weighting failed: $s")
  }

  test("problemSimilarity rejects mismatched feature spaces") {
    assertThrows[IllegalArgumentException](
      DistributionAnalysis.problemSimilarity(IndexedSeq(uniform4), IndexedSeq.empty, KS))
  }

  test("problemSimilarity falls back to the unweighted mean when all stds are 0") {
    val a = IndexedSeq(hist("a", Array(10L, 0L, 0L, 0L), std = 0.0))
    val b = IndexedSeq(hist("b", Array(10L, 0L, 0L, 0L), std = 0.0))
    assert(math.abs(DistributionAnalysis.problemSimilarity(a, b, KS) - 1.0) < 1e-9)
  }

  // --------------------------------------------- distributed histograms

  test("histograms cover every problem and feature of the tiny corpus") {
    val ds = TestData.camera
    val hs = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, 20)
    assert(hs.keySet == ds.pairs.select("problemId").distinct().collect().map(_.getString(0)).toSet)
    hs.values.foreach(h => assert(h.size == ds.numFeatures))
  }

  test("histogram totals equal the problem pair counts") {
    val ds = TestData.camera
    val hs = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, 20)
    val counts = ds.pairs.groupBy("problemId").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    hs.foreach { case (pid, fh) =>
      fh.foreach(h => assert(h.total == counts(pid), s"$pid feature ${h.feature}"))
    }
    assert(DistributionAnalysis.pairCounts(hs) == counts)
  }

  test("histograms equal the SQL aggregate they replaced, at 64 and 7 shuffle partitions") {
    import org.apache.spark.sql.functions._
    // The posexplode → groupBy → agg query histograms ran before it became
    // one pass over the rows, with its driver-side assembly.
    def reference(pairs: org.apache.spark.sql.DataFrame, numFeatures: Int, numBins: Int) = {
      val agg = pairs
        .select(col("problemId"), posexplode(col("features")).as(Seq("feature", "v")))
        .withColumn("bin", least(floor(col("v") * numBins).cast("int"), lit(numBins - 1)))
        .groupBy("problemId", "feature", "bin")
        .agg(count(lit(1)) as "n", sum("v") as "s1", sum(col("v") * col("v")) as "s2")
        .collect()
      agg.groupBy(_.getString(0)).map { case (pid, rows) =>
        val byFeature = rows.groupBy(_.getInt(1))
        pid -> (0 until numFeatures).map { f =>
          val bins = new Array[Long](numBins)
          var n = 0L; var s1 = 0.0; var s2 = 0.0
          byFeature.getOrElse(f, Array.empty).foreach { r =>
            bins(r.getInt(2)) = r.getLong(3)
            n += r.getLong(3); s1 += r.getDouble(4); s2 += r.getDouble(5)
          }
          val mean = if (n > 0) s1 / n else 0.0
          val varr = if (n > 0) math.max(0.0, s2 / n - mean * mean) else 0.0
          FeatureHistogram(pid, f, bins, n, mean, math.sqrt(varr))
        }
      }
    }
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    def check(config: GenConfig, partitions: Int): Unit = {
      spark.conf.set(key, partitions.toLong)
      val ds = MultiSourceGen.generate(spark, config)
      ds.pairs.cache()
      try {
        val got = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures)
        val want = reference(ds.pairs, ds.numFeatures, DistributionAnalysis.DefaultBins)
        assert(got.keySet == want.keySet)
        for ((pid, hs) <- got; (g, w) <- hs.zip(want(pid))) {
          val at = s"${config.name} at $partitions partitions, $pid feature ${g.feature}"
          assert(g.problemId == w.problemId && g.feature == w.feature, at)
          assert(g.bins.toSeq == w.bins.toSeq && g.total == w.total, at)
          assert(math.abs(g.mean - w.mean) <= 1e-12 && math.abs(g.std - w.std) <= 1e-12, at)
        }
      } finally ds.pairs.unpersist()
    }
    try {
      for (config <- Seq(TestData.tinyCameraConfig(), TestData.tinyMusicConfig()); n <- Seq(64, 7))
        check(config, n)
    } finally spark.conf.set(key, saved)
  }

  test("histograms run one Spark job") {
    // The SQL aggregate it replaced ran 2 jobs and 1 query.
    val ds = TestData.camera
    assert(SparkJobs.count(spark) { DistributionAnalysis.histograms(ds.pairs, ds.numFeatures) } == 1)
  }

  test("histograms run their job on their scan of the pairs itself") {
    // RDD ids are handed out in order. One scan of (problemId, features)
    // builds `width` RDDs, so a job over the scan itself, with no RDD built
    // on top of it, runs on the id `width` past the last one made before.
    val ds = TestData.camera
    def newestId() = spark.sparkContext.emptyRDD[Int].id
    val width = { val last = newestId(); ds.pairs.select("problemId", "features").queryExecution.toRdd.id - last }
    var last = 0
    val jobs = SparkJobs.rdds(spark) {
      last = newestId()
      DistributionAnalysis.histograms(ds.pairs, ds.numFeatures)
    }
    assert(jobs == Seq(last + width))
  }

  test("histogram bin counts match DuckDB binning (oracle)") {
    import org.apache.spark.sql.functions._
    val ds = TestData.camera
    val one = ds.pairs
      .select(col("problemId"), col("features").getItem(0) as "v")
    val sparkBins = one
      .withColumn("bin", least(floor(col("v") * 10).cast("int"), lit(9)))
      .groupBy("problemId", "bin").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      sparkBins,
      """SELECT problemId,
        |       LEAST(CAST(FLOOR(CAST(v AS DOUBLE) * 10) AS INT), 9) AS bin,
        |       count(*) AS cnt
        |FROM vals GROUP BY 1, 2""".stripMargin,
      "vals" -> one)
  }

  test("histogram mean/std agree with direct aggregation") {
    import org.apache.spark.sql.functions._
    val ds = TestData.camera
    val hs = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, 20)
    val pid = hs.keys.min
    val r = ds.pairs.filter(col("problemId") === pid)
      .agg(avg(col("features").getItem(0)), stddev_pop(col("features").getItem(0)))
      .collect()(0)
    assert(math.abs(hs(pid)(0).mean - r.getDouble(0)) < 1e-9)
    assert(math.abs(hs(pid)(0).std - r.getDouble(1)) < 1e-9)
  }

  test("histogramOfVectors matches the distributed histogram on the same data") {
    import org.apache.spark.sql.functions._
    val ds = TestData.camera
    val pid = ds.problemIds.head
    val sub = ds.pairs.filter(col("problemId") === pid)
    val dist = DistributionAnalysis.histograms(sub, ds.numFeatures, 10)(pid)
    val vecs = sub.select("features").collect().map(_.getSeq[Double](0).toArray).toSeq
    val local = DistributionAnalysis.histogramOfVectors(pid, vecs, ds.numFeatures, 10)
    dist.zip(local).foreach { case (d, l) =>
      assert(d.bins.toSeq == l.bins.toSeq)
      assert(math.abs(d.mean - l.mean) < 1e-9)
      assert(math.abs(d.std - l.std) < 1e-9)
    }
  }

  test("value 1.0 lands in the last bin (no out-of-range bin)") {
    val h = DistributionAnalysis.histogramOfVectors("x", Seq(Array(1.0), Array(0.0)), 1, 10)
    assert(h(0).bins(9) == 1 && h(0).bins(0) == 1)
  }
}
