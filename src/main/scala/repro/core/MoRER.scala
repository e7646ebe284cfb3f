package repro.core

import org.apache.spark.sql.SparkSession
import scala.annotation.unused
import repro.al.{ALConfig, ActiveLearner, BootstrapAL}
import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.ml.PoolVector

/** How each cluster model gets its training data (paper Table 3). */
sealed trait ModelGen {
  /** Draw a cluster's training vectors from its `pool`, and return them
    * with the number of labels they cost. `budget`, `idf` and `seed` steer
    * the AL selection; `idf` is evaluated only by a draw that reads it.
    */
  def draw(
      spark: SparkSession,
      pool: IndexedSeq[PoolVector],
      budget: Int,
      idf: => Map[Long, Double],
      seed: Long,
      cfg: MoRERConfig,
  ): (IndexedSeq[PoolVector], Int)
}

object ModelGen {
  /** Budgeted active learning over the cluster's pool (the paper's
    * default); every selected pair costs one label. The learner gets the
    * pool as a driver-held DataFrame, whose collect runs no Spark job.
    */
  case object ActiveLearning extends ModelGen {
    def draw(spark: SparkSession, pool: IndexedSeq[PoolVector], budget: Int, idf: => Map[Long, Double],
             seed: Long, cfg: MoRERConfig): (IndexedSeq[PoolVector], Int) = {
      val selected = cfg.al.select(spark, ActiveLearner.poolFrame(spark, pool), budget, cfg.alConfig, idf, seed)
      (selected, selected.size)
    }
  }

  /** Every pool vector with its gold label, sampled down to about `cap`
    * for tractability; no labels are charged against the budget. A pool
    * of n > cap vectors keeps a vector when its `ERDataset.pairRank` under
    * `cfg.seed` falls below cap/n. The sample is returned in (recA, recB)
    * order, so neither it nor the model fitted on it depends on the pair
    * table's partitions. Runs on the driver, no Spark job.
    */
  final case class Supervised(cap: Int = 20000) extends ModelGen {
    def draw(spark: SparkSession, pool: IndexedSeq[PoolVector], budget: Int, idf: => Map[Long, Double],
             seed: Long, cfg: MoRERConfig): (IndexedSeq[PoolVector], Int) = {
      val sample =
        if (pool.size <= cap) pool
        else pool.filter(v => ERDataset.pairRank(v.recA, v.recB, cfg.seed) < cap.toDouble / pool.size)
      (sample.sortBy(v => (v.recA, v.recB)), 0)
    }
  }
}

/** MoRER configuration — the paper's parameter grid (Table 3). Defaults
  * are the paper's bold defaults: ratio_init handled by the caller's
  * problem split, KS test, AL model generation, sel_base selection.
  */
final case class MoRERConfig(
    test: DistTest = KS,
    clusterAlgo: ClusterAlgo = ClusterAlgo.Leiden,
    modelGen: ModelGen = ModelGen.ActiveLearning,
    al: ActiveLearner = BootstrapAL,
    bTot: Int = 1000,
    bMin: Int = 20,
    alConfig: ALConfig = ALConfig(),
    numBins: Int = DistributionAnalysis.DefaultBins,
    selection: String = "base",          // base | cov
    tCov: Double = 0.25,
    rfTrees: Int = 10,
    rfDepth: Int = 8,
    edgePolicy: ProblemGraph.EdgePolicy = ProblemGraph.AboveMean,
    seed: Long = 7,
)

final case class MoRERResult(confusion: Confusion, repo: Repository) {
  /** pooled F1 over all unsolved problems. */
  def f1: Double = confusion.f1
  def labelsSpent: Int = repo.labelsSpent
}

/** End-to-end MoRER pipeline (paper §4): distribution analysis →
  * ER-problem graph → Leiden clustering → budgeted AL per cluster →
  * repository; then sel_base / sel_cov to solve the unsolved problems.
  */
object MoRER {

  /** Initialize the repository from the solved problems P_I
    * (steps 1–3 of Fig. 3).
    *
    * @param allHists      per-problem feature histograms (must cover initIds)
    * @param vectorCounts  per-problem pair counts (must cover initIds); they
    *                      size the clusters' budgets (Eqs. 5–9)
    */
  def initRepository(
      spark: SparkSession,
      ds: ERDataset,
      initIds: Seq[String],
      allHists: Map[String, IndexedSeq[FeatureHistogram]],
      vectorCounts: Map[String, Long],
      cfg: MoRERConfig,
  ): Repository = {
    val ids = initIds.filter(allHists.contains).sorted
    val graph = ProblemGraph.build(allHists, ids, cfg.test, cfg.edgePolicy)
    val comm  = cfg.clusterAlgo.cluster(graph, cfg.seed)

    var infos: Seq[Budget.ClusterInfo] = comm.zipWithIndex
      .groupBy(_._1)
      .map { case (c, members) =>
        val pids = members.map(m => graph.nodes(m._2)).toSeq.sorted
        Budget.ClusterInfo(c, pids, pids.map(p => vectorCounts.getOrElse(p, 0L)).sum)
      }.toSeq.sortBy(_.id)

    // Eq. 4: merge singletons into their most-similar non-singleton cluster
    // when the budget cannot give every cluster its minimum.
    if (Budget.needsMerge(infos.size, cfg.bTot, cfg.bMin)) {
      def clusterSim(a: Budget.ClusterInfo, b: Budget.ClusterInfo): Double = {
        val sims = for (pa <- a.problemIds; pb <- b.problemIds)
          yield DistributionAnalysis.problemSimilarity(allHists(pa), allHists(pb), cfg.test)
        if (sims.isEmpty) 0.0 else sims.sum / sims.size
      }
      infos = Budget.mergeSingletons(infos, clusterSim)
      if (Budget.needsMerge(infos.size, cfg.bTot, cfg.bMin))
        throw new IllegalArgumentException(
          s"budget ${cfg.bTot} too small even after merging (${infos.size} clusters, b_min=${cfg.bMin})")
    }

    val budgets = Budget.distribute(infos, cfg.bTot, cfg.bMin)
    // Cluster model `id` serves the problems of infos(id).
    val modelOf = infos.zipWithIndex.flatMap { case (info, id) => info.problemIds.map(_ -> id) }.toMap

    // One Spark job collects P_I's pairs; the IDF scores (computed only if
    // a draw reads them) and every cluster's pool come from those vectors.
    val vectorsI = ds.poolOf(ids)
    lazy val idf = ModelRepository.idfScores(vectorsI, modelOf)
    val pools = vectorsI.groupBy(v => modelOf(v.problemId)) // keeps the table's order

    val (models, labels) = infos.zipWithIndex.map { case (info, id) =>
      val pool = pools.getOrElse(id, IndexedSeq.empty)
      val (training, spent) = cfg.modelGen.draw(spark, pool, budgets(info.id), idf, cfg.seed + id, cfg)
      (ModelRepository.fit(id, training, ds.numFeatures, cfg), spent)
    }.unzip

    Repository(models.map(m => m.id -> m).toMap, graph, modelOf, allHists, ids.toSet, labels.sum)
  }

  /** sel_cov: integrate one new ER problem into the graph, re-cluster,
    * and reuse / retrain / create the cluster model (paper §4.5,
    * Eqs. 13–14). Returns the confusion on the problem's pairs and the
    * updated repository.
    */
  def solveCov(
      spark: SparkSession,
      ds: ERDataset,
      repo: Repository,
      pid: String,
      cfg: MoRERConfig,
  ): (Confusion, Repository) = {
    val h = repo.problemHists(pid)

    // Extend G_P: the graph keeps the new problem's edges that reach its
    // build-time cut.
    val sims = repo.graph.nodes.map(n =>
      n -> DistributionAnalysis.problemSimilarity(h, repo.problemHists(n), cfg.test))
    val graph2 = repo.graph.addNode(pid, sims)

    val comm = cfg.clusterAlgo.cluster(graph2, cfg.seed)
    val myComm = comm(graph2.index(pid))
    val members = graph2.nodes.zipWithIndex.collect { case (n, i) if comm(i) == myComm => n }
    val solvedMembers   = members.filter(repo.solvedT.contains)
    val unsolvedMembers = members.filterNot(repo.solvedT.contains) // ⊆ U, includes pid

    // Reuse the previous cluster with maximum overlap (majority of the
    // solved members' current model assignments); a cluster without solved
    // members gets a new model, with the next dense id.
    val prevId = solvedMembers.flatMap(repo.modelOf.get)
      .groupBy(identity).maxByOption { case (id, xs) => (xs.size, -id) }.map(_._1)
    val modelId = prevId.getOrElse(repo.numClusters)

    // Coverage ratio (Eq. 13): share of the cluster's vectors coming
    // from problems not yet used for training; histograms count pairs.
    val uVecs = unsolvedMembers.map(p => repo.problemHists(p).head.total).sum
    val aVecs = members.map(p => repo.problemHists(p).head.total).sum
    val cov = if (aVecs > 0) uVecs.toDouble / aVecs else 0.0

    // The training kept from the previous model and the budget of the
    // fresh draw, when the cluster model is (re)trained.
    val toTrain: Option[(IndexedSeq[PoolVector], Int)] = prevId match {
      case None =>
        // Entirely-new cluster. The paper specifies *that* a new model is
        // trained but not its budget; we grant the cluster minimum, floored
        // at twice the AL warm-start size so the fresh model sees both
        // classes.
        Some((IndexedSeq.empty, math.max(cfg.bMin, cfg.alConfig.initSize * 2)))
      case Some(id) if cov > cfg.tCov =>
        // Retrain (Eq. 14): b_new = b_tot · cov · |T∩C_prev|/b_tot
        //                        = cov · (previous training size).
        val kept = repo.clusters(id).training
        Some((kept, math.max(1, math.round(cov * kept.size).toInt)))
      case Some(_) => None
    }

    val repo2 = toTrain match {
      case Some((kept, budget)) =>
        val (fresh, labels) = cfg.modelGen.draw(spark, ds.poolOf(unsolvedMembers), budget, Map.empty,
          cfg.seed + repo.numClusters, cfg)
        val cm = ModelRepository.fit(modelId, kept ++ fresh, ds.numFeatures, cfg)
        repo.copy(
          clusters = repo.clusters + (modelId -> cm),
          graph = graph2,
          modelOf = repo.modelOf ++ members.map(_ -> modelId),
          solvedT = repo.solvedT ++ unsolvedMembers,
          labelsSpent = repo.labelsSpent + labels)
      case None =>
        repo.copy(graph = graph2, modelOf = repo.modelOf + (pid -> modelId))
    }

    (ModelRepository.confusion(ds, Seq(pid), Map(pid -> repo2.clusters(modelId).model)), repo2)
  }

  /** Full run: init repository on `initIds`, solve every problem in
    * `unsolvedIds` with the configured selection strategy, return the
    * pooled confusion over all unsolved pairs.
    */
  def run(
      spark: SparkSession,
      ds: ERDataset,
      initIds: Seq[String],
      unsolvedIds: Seq[String],
      cfg: MoRERConfig,
  ): MoRERResult = {
    val allHists = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, cfg.numBins)
    val repo = initRepository(spark, ds, initIds, allHists, DistributionAnalysis.pairCounts(allHists), cfg)
    val present = unsolvedIds.filter(allHists.contains).sorted

    cfg.selection match {
      case "base" =>
        MoRERResult(solveBaseAllWithTest(spark, ds, repo, present, cfg.test)._1, repo)
      case "cov" =>
        val (conf, r) = present.foldLeft((Confusion.empty, repo)) { case ((conf, r), pid) =>
          val (c, r2) = solveCov(spark, ds, r, pid, cfg)
          (conf + c, r2)
        }
        MoRERResult(conf, r)
      case other => throw new IllegalArgumentException(s"unknown selection $other")
    }
  }

  /** sel_base batch classification with an explicit distribution test.
    * `spark` is unused; it stays because `perfbench/` passes it.
    */
  def solveBaseAllWithTest(
      @unused spark: SparkSession,
      ds: ERDataset,
      repo: Repository,
      unsolvedIds: Seq[String],
      test: DistTest,
  ): (Confusion, Map[String, Int]) = {
    val assignment = unsolvedIds.flatMap { pid =>
      repo.problemHists.get(pid).map { h =>
        pid -> repo.clusters.values
          .maxBy(cm => DistributionAnalysis.problemSimilarity(h, cm.hist, test)).id
      }
    }.toMap
    val models = assignment.map { case (pid, cid) => pid -> repo.clusters(cid).model }
    (ModelRepository.confusion(ds, unsolvedIds, models), assignment)
  }
}
