package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.al.BootstrapAL
import repro.ml.{LabeledVector, PoolVector, RandomForest}

class ModelRepositorySpec extends SparkSpec {

  private def pool() = TestData.camera.pairs
    .select("problemId", "recA", "recB", "features", "label")

  private def always(p: Int) = RandomForest(IndexedSeq(repro.ml.Leaf(p.toDouble)))
  private def forEveryProblem(m: RandomForest) = TestData.camera.problemIds.map(_ -> m).toMap

  test("confusion counts every pair once") {
    val train = pool().limit(200).collect().toIndexedSeq
      .map(r => LabeledVector(r.getSeq[Double](3).toArray, r.getInt(4)))
    val m = RandomForest.fit(train, seed = 1)
    val conf = ModelRepository.confusion(spark, TestData.camera, TestData.camera.problemIds, forEveryProblem(m))
    assert(conf.total == TestData.camera.pairs.count())
  }

  test("a model trained on gold labels achieves high F1 on the tiny corpus") {
    val train = pool().sample(0.3, seed = 1).collect().toIndexedSeq
      .map(r => LabeledVector(r.getSeq[Double](3).toArray, r.getInt(4)))
    val m = RandomForest.fit(train, seed = 2)
    val conf = ModelRepository.confusion(spark, TestData.camera, TestData.camera.problemIds, forEveryProblem(m))
    assert(conf.f1 > 0.9, s"F1 ${conf.f1}")
  }

  test("confusion routes each problem to its own model") {
    val ds = TestData.camera
    val pids = ds.problemIds.take(2)
    def of(pid: String) = ds.pairsOf(Seq(pid))
    val labels = pids.map(p => p -> of(p).filter(col("label") === 1).count()).toMap
    val sizes = pids.map(p => p -> of(p).count()).toMap
    val conf = ModelRepository.confusion(spark, ds, pids, Map(pids.head -> always(1), pids(1) -> always(0)))
    // pids.head predicts match on every pair, pids(1) non-match on every pair
    assert(conf.tp == labels(pids.head) && conf.fp == sizes(pids.head) - labels(pids.head))
    assert(conf.fn == labels(pids(1)) && conf.tn == sizes(pids(1)) - labels(pids(1)))
  }

  test("confusion defaults problems without a model to non-match") {
    val conf = ModelRepository.confusion(spark, TestData.camera, TestData.camera.problemIds, Map.empty)
    assert(conf.tp == 0 && conf.fp == 0 && conf.total == TestData.camera.pairs.count())
  }

  test("confusion equals the pred-column UDF and SQL aggregate it replaced") {
    val ds = TestData.camera
    val train = pool().sample(0.2, seed = 4).collect().toIndexedSeq
      .map(r => LabeledVector(r.getSeq[Double](3).toArray, r.getInt(4)))
    val pids = ds.problemIds.sorted
    val perProblem = pids.zipWithIndex.map { case (p, i) => p -> RandomForest.fit(train, numTrees = 3, seed = i) }
    val someMissing = perProblem.zipWithIndex.collect { case (pm, i) if i % 3 != 0 => pm }
    def reference(ids: Seq[String], models: Map[String, RandomForest]) = {
      val b = spark.sparkContext.broadcast(models)
      val pred = udf((pid: String, f: Seq[Double]) => b.value.get(pid).map(_.predict(f.toArray)).getOrElse(0))
      repro.eval.Metrics.confusion(ds.pairsOf(ids).withColumn("pred", pred(col("problemId"), col("features"))))
    }
    val idSets = Seq("all ids" -> pids, "no ids" -> Nil,
      "a strict subset" -> pids.zipWithIndex.collect { case (p, i) if i % 2 == 1 => p })
    val modelSets = Seq("one model" -> forEveryProblem(RandomForest.fit(train, seed = 1)),
      "one model per problem" -> perProblem.toMap, "problems without a model" -> someMissing.toMap)
    for ((idsName, ids) <- idSets; (name, models) <- modelSets)
      assert(ModelRepository.confusion(spark, ds, ids, models) == reference(ids, models), s"$name, $idsName")
  }

  test("confusion of no pairs is empty") {
    assert(ModelRepository.confusion(spark, TestData.camera, Nil, forEveryProblem(always(1))) ==
      repro.eval.Metrics.Confusion.empty)
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

  test("idfScores of pool vectors equals idfScores of their DataFrame") {
    val ds = TestData.camera
    val clusterOf = ds.problemIds.zipWithIndex.map { case (p, i) => p -> i % 3 }.toMap
    val ids = ds.problemIds.take(7)
    assert(ModelRepository.idfScores(ds.poolOf(ids), clusterOf) ==
      ModelRepository.idfScores(spark, ds.pairsOf(ids), clusterOf))
  }

  test("idfScores with no clusters is empty") {
    assert(ModelRepository.idfScores(spark, TestData.camera.pairs, Map.empty).isEmpty)
  }

  private val fitCfg = MoRERConfig(numBins = 10, rfTrees = 5, rfDepth = 6)

  test("fit on an AL selection stores the selected training vectors") {
    val ds = TestData.camera
    val training = BootstrapAL.select(spark, pool(), budget = 80,
      repro.al.ALConfig(kModels = 5, batchSize = 40, initSize = 20), Map.empty, seed = 3)
    val cm = ModelRepository.fit(0, training, ds.numFeatures, fitCfg)
    assert(cm.training == training && training.size <= 80)
    assert(cm.hist.size == ds.numFeatures)
    assert(cm.hist(0).total == cm.training.size)
  }

  test("fit with empty training yields an always-nonmatch model") {
    val cm = ModelRepository.fit(0, IndexedSeq.empty, 4, fitCfg)
    assert(cm.model.predict(Array(1.0, 1.0, 1.0, 1.0)) == 0)
    // The summary of no vectors: every feature is empty.
    assert(cm.hist.map(_.feature) == (0 until 4))
    for (h <- cm.hist)
      assert(h.total == 0 && h.mean == 0.0 && h.std == 0.0 && h.cdf.forall(_ == 0.0), s"feature ${h.feature}")
  }

  test("fit histograms summarize exactly the training vectors") {
    val vecs = IndexedSeq(
      PoolVector("p", 1, 2, Array(0.95, 0.04), 1),
      PoolVector("p", 3, 4, Array(0.05, 0.96), 0))
    val cm = ModelRepository.fit(1, vecs, 2, fitCfg)
    assert(cm.hist(0).bins(9) == 1 && cm.hist(0).bins(0) == 1)
    assert(cm.hist(1).bins(0) == 1 && cm.hist(1).bins(9) == 1)
  }
}
