package repro.core

import scala.util.Random
import repro.{SparkSpec, TestData}
import repro.al.{ALConfig, AlmserAL, SelectionFingerprint, SparkJobs}

/** End-to-end integration of the MoRER pipeline on the tiny corpora. */
class MoRERPipelineSpec extends SparkSpec {

  private lazy val ds = TestData.camera
  private lazy val split = {
    val ids = new Random(3).shuffle(ds.problemIds.sorted.toVector)
    ids.splitAt(ids.size / 2)
  }
  private def cfg(base: MoRERConfig = MoRERConfig()) = base.copy(
    bTot = 200, bMin = 5, alConfig = ALConfig(5, 50, 20), rfTrees = 5)

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
    // training vectors.
    val res = lowCovResult
    assert(res.labelsSpent == 361)
    assert(res.repo.numClusters == 7)
    assert(res.f1 == 0.9819494584837546)
    assert(res.repo.clusters.map { case (id, cm) => id -> SelectionFingerprint.of(cm.training) } == Map(
      0 -> ((87, -1067973905)), 1 -> ((70, -1472967160)), 2 -> ((42, 76305860)),
      3 -> ((60, 981350250)), 4 -> ((40, 48535496)), 5 -> ((40, -501262889)),
      6 -> ((22, 1671184853))))
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
    // The caller passes the pool size, so the capped sample needs no count.
    val pool = ds.pairsOf(split._1).select("problemId", "recA", "recB", "features", "label").cache()
    val n = pool.count()
    val sup = ModelGen.Supervised(cap = 100)
    var drawn = IndexedSeq.empty[repro.ml.PoolVector]
    assert(SparkJobs.count(spark) { drawn = sup.draw(spark, pool, n, 0, Map.empty, 1, cfg())._1 } == 1)
    pool.unpersist()
    assert(drawn.nonEmpty && drawn.size < n)
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
