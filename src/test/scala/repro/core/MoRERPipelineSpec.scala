package repro.core

import scala.util.Random
import repro.{SparkSpec, TestData}
import repro.baselines.SqlPairs
import repro.erdata.MultiSourceGen
import repro.al.{ALConfig, ActiveLearner, AlmserAL, SelectionFingerprint, SparkJobs}

/** End-to-end integration of the MoRER pipeline on the tiny corpora. */
class MoRERPipelineSpec extends SparkSpec {

  private lazy val ds = TestData.camera
  private lazy val split = {
    val ids = new Random(3).shuffle(ds.problemIds.sorted.toVector)
    ids.splitAt(ids.size / 2)
  }
  private def cfg(base: MoRERConfig = MoRERConfig()) = base.copy(
    bTot = 200, bMin = 5, alConfig = ALConfig(5, 50, 20), rfTrees = 5)

  private def trainingFingerprints(res: MoRERResult) =
    res.repo.clusters.map { case (id, cm) => id -> SelectionFingerprint.of(cm.training) }

  private lazy val baseResult =
    MoRER.run(spark, ds, split._1, split._2, cfg())
  private lazy val lowCovResult = MoRER.run(spark, ds, split._1, split._2,
    cfg(MoRERConfig(selection = "cov", tCov = 0.05)))

  test("repository initialization creates at least one cluster model") {
    assert(baseResult.repo.numClusters >= 1)
  }

  test("every initial problem is assigned to a cluster model") {
    split._1.foreach(p => assert(baseResult.repo.modelOf.contains(p)))
  }

  test("labeling budget is respected") {
    assert(baseResult.labelsSpent <= 200)
  }

  test("sel_base achieves a useful F1 on unsolved problems") {
    assert(baseResult.f1 > 0.75, s"F1 ${baseResult.f1}")
  }

  test("solved problems T equals the initial set after init") {
    assert(baseResult.repo.solvedT == split._1.toSet)
  }

  test("selectBase picks the cluster with maximal distribution similarity") {
    val repo = baseResult.repo
    val (_, assignment) = MoRER.solveBaseAllWithTest(spark, ds, repo, split._2, KS)
    assert(assignment.keySet == split._2.filter(repo.problemHists.contains).toSet)
    assignment.foreach { case (pid, best) =>
      val h = repo.problemHists(pid)
      val sims = repo.clusters.values.map(cm =>
        cm.id -> DistributionAnalysis.problemSimilarity(h, cm.hist, KS)).toMap
      assert(sims(best) == sims.values.max, pid)
    }
  }

  test("sel_cov integrates new problems into the graph") {
    val res = MoRER.run(spark, ds, split._1, split._2.take(2),
      cfg(MoRERConfig(selection = "cov", tCov = 0.25)))
    assert(res.repo.graph.nodes.toSet ==
      (split._1.toSet ++ split._2.take(2).toSet).filter(res.repo.problemHists.contains))
    res.repo.graph.nodes.foreach(p => assert(res.repo.modelOf.contains(p), p))
    assert(res.repo.modelOf.values.forall(res.repo.clusters.contains))
  }

  test("sel_cov with a low threshold spends extra labels (retraining)") {
    assert(lowCovResult.labelsSpent >= baseResult.labelsSpent)
  }

  test("sel_cov training fingerprint is unchanged") {
    // Taken before sel_cov's new-cluster and retrain branches shared one
    // training step: per cluster id, the size and ordered hash of its
    // training vectors. Cluster 6's pool is labeled whole; its hash was
    // retaken when such a pool came to be returned in (recA, recB) order.
    val res = lowCovResult
    assert(res.labelsSpent == 361)
    assert(res.repo.numClusters == 7)
    assert(res.f1 == 0.9819494584837546)
    assert(trainingFingerprints(res) == Map(
      0 -> ((87, -1067973905)), 1 -> ((70, -1472967160)), 2 -> ((42, 76305860)),
      3 -> ((60, 981350250)), 4 -> ((40, 48535496)), 5 -> ((40, -501262889)),
      6 -> ((22, -139838456))))
  }

  test("AL results do not depend on the shuffle partition count") {
    // The job session shuffles into one partition per core, the tests
    // into 64: the camera corpus and each run are rebuilt at every layout.
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val configs = Seq(cfg(), cfg(MoRERConfig(selection = "cov", tCov = 0.05)), cfg(MoRERConfig(al = AlmserAL)),
      cfg(MoRERConfig(modelGen = ModelGen.Supervised(cap = 100))),
      cfg(MoRERConfig(modelGen = ModelGen.Supervised(cap = 100), selection = "cov", tCov = 0.05)))
    def outcomes(partitions: Int) = {
      spark.conf.set(key, partitions.toLong)
      val corpus = MultiSourceGen.generate(spark, TestData.tinyCameraConfig())
      corpus.pairs.cache()
      try configs.map { c =>
        val r = MoRER.run(spark, corpus, split._1, split._2, c)
        (r.f1, r.labelsSpent, r.repo.numClusters, trainingFingerprints(r))
      } finally corpus.pairs.unpersist()
    }
    try {
      val at64 = outcomes(64)
      Seq(7, spark.sparkContext.defaultParallelism).foreach(n => assert(outcomes(n) == at64, s"at $n partitions"))
    } finally spark.conf.set(key, saved)
  }

  test("sel_cov with an unreachable threshold only spends labels on brand-new clusters") {
    // cov can never exceed 1.1, so no retraining; the only extra labels
    // are the b_min spent when re-clustering isolates a new problem into
    // an all-unsolved cluster (which trains a fresh model by design).
    val none = MoRER.run(spark, ds, split._1, split._2,
      cfg(MoRERConfig(selection = "cov", tCov = 1.1)))
    assert(none.labelsSpent >= baseResult.labelsSpent)
    // per brand-new cluster the budget is max(bMin, 2·initSize) = 40 here
    assert(none.labelsSpent <= baseResult.labelsSpent + 40 * split._2.size)
  }

  test("sel_cov quality is at least near sel_base") {
    val cov = MoRER.run(spark, ds, split._1, split._2,
      cfg(MoRERConfig(selection = "cov", tCov = 0.1)))
    assert(cov.f1 > baseResult.f1 - 0.1, s"cov ${cov.f1} vs base ${baseResult.f1}")
  }

  test("pipeline works with the Almser AL method") {
    val res = MoRER.run(spark, ds, split._1, split._2, cfg(MoRERConfig(al = AlmserAL)))
    assert(res.f1 > 0.7, s"F1 ${res.f1}")
  }

  test("pipeline works with every distribution test") {
    DistTest.all.foreach { t =>
      val res = MoRER.run(spark, ds, split._1, split._2, cfg(MoRERConfig(test = t)))
      assert(res.f1 > 0.7, s"${t.name}: F1 ${res.f1}")
    }
  }

  test("pipeline works with label propagation clustering") {
    val res = MoRER.run(spark, ds, split._1, split._2,
      cfg(MoRERConfig(clusterAlgo = ClusterAlgo.LabelPropagation)))
    assert(res.f1 > 0.7, s"F1 ${res.f1}")
  }

  test("supervised model generation spends no labels and scores at least as well") {
    val sup = MoRER.run(spark, ds, split._1, split._2,
      cfg(MoRERConfig(modelGen = ModelGen.Supervised(cap = 2000))))
    assert(sup.labelsSpent == 0)
    assert(sup.f1 >= baseResult.f1 - 0.05, s"supervised ${sup.f1} vs AL ${baseResult.f1}")
  }

  test("supervised model generation under sel_cov spends no labels") {
    val sup = MoRER.run(spark, ds, split._1, split._2,
      cfg(MoRERConfig(modelGen = ModelGen.Supervised(cap = 2000), selection = "cov", tCov = 0.05)))
    assert(sup.labelsSpent == 0)
  }

  test("a Supervised draw runs one Spark job") {
    // The pool's collect is the one job; the capped sample is drawn on the driver.
    // A first poolOf materialises the cached pair table, so the count sees only the draw.
    ds.poolOf(split._1)
    val sup = ModelGen.Supervised(cap = 100)
    var pool = IndexedSeq.empty[repro.ml.PoolVector]
    var drawn = IndexedSeq.empty[repro.ml.PoolVector]
    assert(SparkJobs.count(spark) { pool = ds.poolOf(split._1) } == 1)
    assert(SparkJobs.count(spark) { drawn = sup.draw(spark, pool, 0, Map.empty, 1, cfg())._1 } == 0)
    assert(drawn.nonEmpty && drawn.size < pool.size)
  }

  test("a Supervised draw samples by pair, not by position") {
    val pool = ds.poolOf(split._1)
    val sup = ModelGen.Supervised(cap = 100)
    val drawn = sup.draw(spark, pool, 0, Map.empty, 1, cfg())._1
    assert(drawn.nonEmpty && drawn.size < pool.size)
    assert(drawn == drawn.sortBy(v => (v.recA, v.recB)))
    // The same pairs in another order give the same sample.
    assert(sup.draw(spark, pool.reverse, 0, Map.empty, 1, cfg())._1 == drawn)
  }

  test("a Bootstrap initRepository runs one Spark job") {
    // One pool collect; each cluster's AL pool is a driver-held DataFrame,
    // whose collect is a SQL query that runs no job. The path this replaced
    // (a cached pairsOf DataFrame, its IDF collect and one collect per
    // cluster pool, 3 here) ran 5 jobs and 4 queries.
    val c = cfg()
    val hists = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, c.numBins)
    var repo: Repository = null
    val queries = SparkJobs.queries(spark) {
      assert(SparkJobs.count(spark) {
        repo = MoRER.initRepository(spark, ds, split._1, hists, DistributionAnalysis.pairCounts(hists), c)
      } == 1)
    }
    assert(queries == repo.numClusters)
  }

  test("an unknown selection is rejected when the config is built, before any Spark job") {
    assert(SparkJobs.count(spark) {
      assertThrows[IllegalArgumentException](MoRERConfig(selection = "Cov"))
    } == 0)
  }

  test("poolOf returns the rows of pairsOf(ids).collect(), in order") {
    def rows(vs: Seq[repro.ml.PoolVector]) = vs.map(v => (v.problemId, v.recA, v.recB, v.features.toSeq, v.oracleLabel))
    val music = TestData.music
    for (d <- Seq(ds, music); ids <- Seq(d.problemIds, d.problemIds.take(3), Seq("no such problem"), Nil)) {
      val want = SqlPairs.pairsOf(d, ids).select("problemId", "recA", "recB", "features", "label").collect().toSeq
        .map(ActiveLearner.toPoolVector)
      assert(rows(d.poolOf(ids)) == rows(want), s"${d.name}: ${ids.size} ids")
    }
  }

  test("a pool collect and a scoring pass run their job on the pair scan itself") {
    // The job is submitted over ds.pairRows, with no RDD built on top of it.
    assert(SparkJobs.rdds(spark) { ds.poolOf(split._1) } == Seq(ds.pairRows.id))
    assert(SparkJobs.rdds(spark) {
      ModelRepository.confusion(ds, split._2, Map.empty)
    } == Seq(ds.pairRows.id))
    // The text baselines' scoring pass, once the record texts are computed.
    ds.recordText
    assert(SparkJobs.rdds(spark) {
      repro.baselines.BaselineUtil.textScores(ds, split._2, (_, _) => 0.0)
    } == Seq(ds.pairRows.id))
  }

  test("a sel_base search runs one Spark job") {
    val repo = baseResult.repo
    assert(SparkJobs.count(spark) { MoRER.solveBaseAllWithTest(spark, ds, repo, split._2, KS) } == 1)
  }

  test("a repeated sel_base search starts no SQL query") {
    // The first search plans the dataset's scoring scan; later ones reuse it.
    val repo = baseResult.repo
    MoRER.solveBaseAllWithTest(spark, ds, repo, split._2, KS)
    assert(SparkJobs.queries(spark) { MoRER.solveBaseAllWithTest(spark, ds, repo, split._2, KS) } == 0)
  }

  test("a sel_cov insertion that reuses its model runs one Spark job") {
    // t_cov above 1 never retrains, and in a repository built on every
    // other problem the new one joins a cluster with a model.
    val c = cfg(MoRERConfig(selection = "cov", tCov = 1.1))
    val pid = split._2.head
    val repo = MoRER.run(spark, ds, ds.problemIds.filterNot(_ == pid), Nil, c).repo
    var after = repo
    val jobs = SparkJobs.count(spark) { after = MoRER.solveCov(spark, ds, repo, pid, c)._2 }
    assert(after.numClusters == repo.numClusters && after.labelsSpent == repo.labelsSpent)
    assert(jobs == 1)
  }

  test("budget too small for the cluster count fails loudly") {
    assertThrows[IllegalArgumentException] {
      MoRER.run(spark, ds, split._1, split._2, MoRERConfig(bTot = 2, bMin = 5))
    }
  }

  test("pipeline runs on the split music corpus (train problems solve test problems)") {
    val music = TestData.music
    val init = music.problems.filter(_.split == "train").map(_.id)
    val unsolved = music.problems.filter(_.split == "test").map(_.id)
    val res = MoRER.run(spark, music, init, unsolved, cfg())
    assert(res.f1 > 0.6, s"music F1 ${res.f1}")
  }

  test("results are deterministic in the seed") {
    val a = MoRER.run(spark, ds, split._1, split._2, cfg())
    assert(a.f1 == baseResult.f1 && a.labelsSpent == baseResult.labelsSpent)
  }
}
