package repro.core

import scala.util.Random
import repro.{SparkSpec, TestData}
import repro.al.AlmserAL

/** End-to-end integration of the MoRER pipeline on the tiny corpora. */
class MoRERPipelineSpec extends SparkSpec {

  private lazy val ds = TestData.camera
  private lazy val split = {
    val ids = new Random(3).shuffle(ds.problemIds.sorted.toVector)
    ids.splitAt(ids.size / 2)
  }
  private def cfg(base: MoRERConfig = MoRERConfig()) = base.copy(
    bTot = 200, bMin = 5, alK = 5, alBatch = 50, alInit = 20, rfTrees = 5)

  private lazy val baseResult =
    MoRER.run(spark, ds, split._1, split._2, cfg())

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
    val low = MoRER.run(spark, ds, split._1, split._2,
      cfg(MoRERConfig(selection = "cov", tCov = 0.05)))
    assert(low.labelsSpent >= baseResult.labelsSpent)
  }

  test("sel_cov with an unreachable threshold only spends labels on brand-new clusters") {
    // cov can never exceed 1.1, so no retraining; the only extra labels
    // are the b_min spent when re-clustering isolates a new problem into
    // an all-unsolved cluster (which trains a fresh model by design).
    val none = MoRER.run(spark, ds, split._1, split._2,
      cfg(MoRERConfig(selection = "cov", tCov = 1.1)))
    assert(none.labelsSpent >= baseResult.labelsSpent)
    // per brand-new cluster the budget is max(bMin, 2·alInit) = 40 here
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
