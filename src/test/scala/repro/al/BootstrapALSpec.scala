package repro.al

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.ml.{LabeledVector, RandomForest}

class BootstrapALSpec extends SparkSpec {

  private def pool() = TestData.camera.pairs
    .select("problemId", "recA", "recB", "features", "label")

  test("selection fingerprint on the camera and music corpora is unchanged") {
    val cfg = ALConfig(kModels = 5, batchSize = 40, initSize = 20)
    def run(ds: repro.erdata.ERDataset) = SelectionFingerprint.of(BootstrapAL.select(spark,
      ds.pairs.select("problemId", "recA", "recB", "features", "label"), 120, cfg, Map.empty, 1))
    assert((run(TestData.camera), run(TestData.music)) == (((120, 741244035), (120, -825615766))))
  }

  test("one select on a pool larger than the budget runs exactly one Spark job") {
    val p = pool()
    assert(p.count() > 120)
    val jobs = SparkJobs.count(spark) {
      BootstrapAL.select(spark, p, 120, ALConfig(kModels = 5, batchSize = 40, initSize = 20),
        Map.empty, 1)
    }
    assert(jobs == 1)
  }

  test("record ids beyond 32 bits are rejected before any pair is keyed") {
    val wide = pool().withColumn("recA", col("recA") + (1L << 32))
    assertThrows[IllegalArgumentException] {
      BootstrapAL.select(spark, wide, 120, ALConfig(kModels = 5, batchSize = 40, initSize = 20),
        Map.empty, 1)
    }
  }

  test("select respects the budget exactly when the pool is large enough") {
    val out = BootstrapAL.select(spark, pool(), budget = 120,
      ALConfig(kModels = 5, batchSize = 40, initSize = 20), Map.empty, seed = 1)
    assert(out.size == 120)
  }

  test("a pool smaller than the budget is returned whole") {
    val tiny = pool().limit(30)
    val out = BootstrapAL.select(spark, tiny, budget = 100, ALConfig(), Map.empty, 1)
    assert(out.size == 30)
  }

  test("selected pairs are unique") {
    val out = BootstrapAL.select(spark, pool(), budget = 100,
      ALConfig(kModels = 5, batchSize = 50, initSize = 20), Map.empty, 1)
    assert(out.map(v => (v.problemId, v.recA, v.recB)).distinct.size == out.size)
  }

  test("selection is deterministic in the seed") {
    val cfg = ALConfig(kModels = 5, batchSize = 30, initSize = 20)
    val a = BootstrapAL.select(spark, pool(), 60, cfg, Map.empty, 9)
    val b = BootstrapAL.select(spark, pool(), 60, cfg, Map.empty, 9)
    assert(a.map(v => (v.problemId, v.recA, v.recB)) == b.map(v => (v.problemId, v.recA, v.recB)))
  }

  test("warm start covers both classes on a mixed pool") {
    val ws = ActiveLearner.warmStart(pool().collect().toIndexedSeq.map(ActiveLearner.toPoolVector), 30)
    val labels = ws.map(_.oracleLabel).toSet
    assert(labels == Set(0, 1))
  }

  test("selected labels match the ground truth of the pool") {
    val out = BootstrapAL.select(spark, pool(), 60,
      ALConfig(kModels = 5, batchSize = 30, initSize = 20), Map.empty, 2)
    val truth = pool().select("problemId", "recA", "recB", "label").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getLong(2)) -> r.getInt(3)).toMap
    out.foreach(v => assert(truth((v.problemId, v.recA, v.recB)) == v.oracleLabel))
  }

  test("uncertainty formula: unc(w) = p(1-p) peaks at split committees") {
    // direct check of the Eq. 10 surrogate via RandomForest.voteFraction
    val train = IndexedSeq.tabulate(40)(i =>
      LabeledVector(Array(i / 40.0, 0.5), if (i < 20) 0 else 1))
    val f = RandomForest.fit(train, numTrees = 11, seed = 1)
    val uncBoundary = { val p = f.voteFraction(Array(0.5, 0.5)); p * (1 - p) }
    val uncClear = { val p = f.voteFraction(Array(0.99, 0.5)); p * (1 - p) }
    assert(uncBoundary >= uncClear)
  }

  test("AL training beats random sampling of the same budget on heterogeneous data") {
    val p = pool().cache()
    try {
      val budget = 150
      val cfg = ALConfig(kModels = 7, batchSize = 50, initSize = 30)
      val alSel = BootstrapAL.select(spark, p, budget, cfg, Map.empty, 3)
      val rnd = p.orderBy(abs(hash(col("recA"), col("recB")))).limit(budget)
        .collect().toIndexedSeq.map(ActiveLearner.toPoolVector)
      def f1Of(train: IndexedSeq[repro.ml.PoolVector]): Double = {
        val m = RandomForest.fit(train.map(v => LabeledVector(v.features, v.oracleLabel)), seed = 5)
        val ds = TestData.camera
        repro.core.ModelRepository.confusion(ds, ds.problemIds, ds.problemIds.map(_ -> m).toMap).f1
      }
      val alF1 = f1Of(alSel)
      val rndF1 = f1Of(rnd)
      assert(alF1 >= rndF1 - 0.02, s"AL $alF1 much worse than random $rndF1")
    } finally p.unpersist()
  }

  test("IDF pair score averages the two record scores") {
    val idf = Map(1L -> 0.4, 2L -> 0.8)
    assert(math.abs(ActiveLearner.pairScore(idf, 1, 2) - 0.6) < 1e-12)
    assert(ActiveLearner.pairScore(idf, 1, 99) == 0.2) // missing record → 0
    assert(ActiveLearner.pairScore(Map.empty, 1, 2) == 0.0)
  }
}
