package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.al.BootstrapAL
import repro.ml.{LabeledVector, PoolVector, RandomForest}

class ModelRepositorySpec extends SparkSpec {

  private def pool() = TestData.camera.pairs
    .select("problemId", "recA", "recB", "features", "label")

  test("classify adds a 0/1 pred column for every row") {
    val train = pool().limit(200).collect().toIndexedSeq
      .map(r => LabeledVector(r.getSeq[Double](3).toArray, r.getInt(4)))
    val m = RandomForest.fit(train, seed = 1)
    val out = ModelRepository.classify(spark, TestData.camera.pairs, m)
    assert(out.count() == TestData.camera.pairs.count())
    assert(out.filter(col("pred") =!= 0 && col("pred") =!= 1).count() == 0)
  }

  test("a model trained on gold labels achieves high F1 on the tiny corpus") {
    val train = pool().sample(0.3, seed = 1).collect().toIndexedSeq
      .map(r => LabeledVector(r.getSeq[Double](3).toArray, r.getInt(4)))
    val m = RandomForest.fit(train, seed = 2)
    val conf = repro.eval.Metrics.confusion(ModelRepository.classify(spark, TestData.camera.pairs, m))
    assert(conf.f1 > 0.9, s"F1 ${conf.f1}")
  }

  test("classifyWithAssignments routes each problem to its own model") {
    val ds = TestData.camera
    val always1 = RandomForest(IndexedSeq(repro.ml.Leaf(1.0)))
    val always0 = RandomForest(IndexedSeq(repro.ml.Leaf(0.0)))
    val pids = ds.problemIds.take(2)
    val out = ModelRepository.classifyWithAssignments(spark,
      ds.pairs.filter(col("problemId").isin(pids: _*)),
      Map(pids.head -> always1, pids(1) -> always0))
    val per = out.groupBy("problemId").agg(avg("pred") as "m").collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(per(pids.head) == 1.0 && per(pids(1)) == 0.0)
  }

  test("classifyWithAssignments defaults unassigned problems to non-match") {
    val ds = TestData.camera
    val out = ModelRepository.classifyWithAssignments(spark, ds.pairs, Map.empty)
    assert(out.filter(col("pred") =!= 0).count() == 0)
  }

  test("idfScores: a record in fewer clusters scores higher") {
    val ds = TestData.camera
    // two clusters: self problems vs cross problems
    val clusterOf = ds.problemIds.map(p => p ->
      (if (p.matches("p(\\d+)_\\1")) 0 else 1)).toMap
    val idf = ModelRepository.idfScores(spark, ds.pairs, clusterOf)
    assert(idf.nonEmpty)
    // score is log(2/1) for single-cluster records, log(2/2)=0 for both
    val distinctScores = idf.values.toSet
    assert(distinctScores.subsetOf(Set(0.0, math.log(2.0))))
    assert(distinctScores.contains(math.log(2.0)))
  }

  test("idfScores equals the explode/distinct/groupBy query on a two-cluster map") {
    val ds = TestData.camera
    val clusterOf = ds.problemIds.map(p => p ->
      (if (p.matches("p(\\d+)_\\1")) 0 else 1)).toMap
    val cluster = udf((pid: String) => clusterOf.getOrElse(pid, -1))
    val reference = ds.pairs
      .select(col("problemId"), explode(array(col("recA"), col("recB"))) as "rec")
      .withColumn("cluster", cluster(col("problemId")))
      .filter(col("cluster") >= 0)
      .select("rec", "cluster").distinct()
      .groupBy("rec").agg(count(lit(1)) as "n")
      .collect()
      .map(r => r.getLong(0) -> math.log(2.0 / r.getLong(1))).toMap
    assert(ModelRepository.idfScores(spark, ds.pairs, clusterOf) == reference)
  }

  test("idfScores with no clusters is empty") {
    assert(ModelRepository.idfScores(spark, TestData.camera.pairs, Map.empty).isEmpty)
  }

  private val fitCfg = MoRERConfig(numBins = 10, rfTrees = 5, rfDepth = 6)

  test("fit on an AL selection stores the selected training vectors") {
    val ds = TestData.camera
    val training = BootstrapAL.select(spark, pool(), budget = 80,
      repro.al.ALConfig(kModels = 5, batchSize = 40, initSize = 20), Map.empty, seed = 3)
    val cm = ModelRepository.fit(0, training, ds.numFeatures, fitCfg, seed = 3)
    assert(cm.training == training && training.size <= 80)
    assert(cm.hist.size == ds.numFeatures)
    assert(cm.hist(0).total == cm.training.size)
  }

  test("fit with empty training yields an always-nonmatch model") {
    val cm = ModelRepository.fit(0, IndexedSeq.empty, 4, fitCfg, seed = 1)
    assert(cm.model.predict(Array(1.0, 1.0, 1.0, 1.0)) == 0)
  }

  test("fit histograms summarize exactly the training vectors") {
    val vecs = IndexedSeq(
      PoolVector("p", 1, 2, Array(0.95, 0.04), 1),
      PoolVector("p", 3, 4, Array(0.05, 0.96), 0))
    val cm = ModelRepository.fit(1, vecs, 2, fitCfg, seed = 2)
    assert(cm.hist(0).bins(9) == 1 && cm.hist(0).bins(0) == 1)
    assert(cm.hist(1).bins(0) == 1 && cm.hist(1).bins(9) == 1)
  }
}
