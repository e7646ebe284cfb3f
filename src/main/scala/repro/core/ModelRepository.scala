package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.unsafe.types.UTF8String
import scala.annotation.unused
import scala.collection.mutable
import repro.erdata.{ERDataset, PartitionJob}
import repro.eval.Metrics.Confusion
import repro.ml.{LabeledVector, PoolVector, RandomForest}

/** One repository entry: the classifier of a cluster of similar ER
  * problems, plus the bookkeeping needed to compare new problems against
  * it (the selected training vectors P_{C^i} and their per-feature
  * histograms).
  */
final case class ClusterModel(
    id: Int,
    model: RandomForest,
    training: IndexedSeq[PoolVector],
    hist: IndexedSeq[FeatureHistogram],
)

/** The ER model repository (paper §4.4–4.5).
  *
  * @param clusters      stable-id → cluster model
  * @param graph         ER-problem similarity graph G_P (grows under sel_cov)
  * @param modelOf       problem id → stable cluster-model id; the one
  *                      record of which problems each model serves
  * @param problemHists  per-problem feature histograms of every problem
  *                      integrated into the graph so far; each
  *                      feature's histogram also counts the problem's
  *                      pairs (|p_{k,l}|)
  * @param solvedT       T — problems whose vectors have been used for
  *                      training-data selection
  * @param labelsSpent   labeling budget consumed so far
  *
  * Model ids are dense (0 until `numClusters`) and never removed, so a new
  * cluster model takes id `numClusters`.
  */
final case class Repository(
    clusters: Map[Int, ClusterModel],
    graph: ProblemGraph,
    modelOf: Map[String, Int],
    problemHists: Map[String, IndexedSeq[FeatureHistogram]],
    solvedT: Set[String],
    labelsSpent: Int,
) {
  def numClusters: Int = clusters.size
}

object ModelRepository {

  /** Confusion counts of the pairs of the problems `ids` in `ds`, each pair
    * predicted by its problem's model in `models`; a problem without a model
    * predicts non-match. This is the repository applied over partitioned
    * record pairs (sel_base, sel_cov and the one-model baselines): one
    * shuffle-free Spark job, run by `PartitionJob.run` directly on the
    * dataset's planned-once scan (`ERDataset.pairRows`), skips the rows of
    * other problems, decodes the features of the rows it keeps, scores
    * them with the broadcast models and counts each partition, and the
    * driver adds the counts in partition order.
    */
  def confusion(spark: SparkSession, ds: ERDataset, ids: Seq[String], models: Map[String, RandomForest]): Confusion = {
    // Keyed by the rows' own encoding, so a row is routed without decoding
    // its problem id; None marks a wanted problem without a model.
    val b = spark.sparkContext.broadcast(ids.map(id => UTF8String.fromString(id) -> models.get(id)).toMap)
    try {
      PartitionJob.run(ds.pairRows) { rows =>
        val route = b.value
        var tp, fp, fn, tn = 0L
        rows.foreach { r =>
          route.get(r.getUTF8String(0)).foreach { model =>
            val pred = model.fold(0)(_.predict(r.getArray(3).toDoubleArray()))
            (r.getInt(4), pred) match {
              case (1, 1) => tp += 1
              case (0, 1) => fp += 1
              case (1, _) => fn += 1
              case _      => tn += 1
            }
          }
        }
        Confusion(tp, fp, fn, tn)
      }.foldLeft(Confusion.empty)(_ + _)
    } finally b.destroy()
  }

  /** IDF-style record-uniqueness scores s_r (Eqs. 11–12): for every
    * record, count the distinct ER-problem clusters it occurs in and
    * score log(|C_P| / |C_{P|r}|). (The paper's Eq. 12 writes the ratio
    * inverted, which is ≤ 0 for all records; we use the standard IDF
    * orientation the text describes — "how unique a feature vector is".)
    *
    * Counted on the driver over the pool vectors a build has collected,
    * since the pools of a build fit it (see `ActiveLearner.selectByScore`).
    */
  def idfScores(pool: Seq[PoolVector], clusterOfProblem: Map[String, Int]): Map[Long, Double] =
    idfOf(pool.iterator.map(v => (v.problemId, v.recA, v.recB)), clusterOfProblem)

  /** `idfScores` of the (problemId, recA, recB) triples of `pairs`,
    * collected in one Spark job: the form `perfbench/` times. `spark` is
    * unused; it stays because `perfbench/` passes it.
    */
  def idfScores(
      @unused spark: SparkSession,
      pairs: DataFrame,
      clusterOfProblem: Map[String, Int],
  ): Map[Long, Double] =
    idfOf(pairs.select("problemId", "recA", "recB").collect().iterator
      .map(r => (r.getString(0), r.getLong(1), r.getLong(2))), clusterOfProblem)

  /** `pairs` is evaluated only when some problem has a cluster. */
  private def idfOf(pairs: => Iterator[(String, Long, Long)], clusterOfProblem: Map[String, Int]): Map[Long, Double] = {
    // Only the number of distinct clusters per record counts, so any
    // labelling of the clusters gives the same scores.
    val numClusters = clusterOfProblem.values.toSet.size
    if (numClusters == 0) return Map.empty
    val recordsOf = mutable.HashMap.empty[Int, mutable.LongMap[Unit]]
    pairs.foreach { case (pid, recA, recB) =>
      clusterOfProblem.get(pid).foreach { c =>
        val recs = recordsOf.getOrElseUpdate(c, mutable.LongMap.empty)
        recs(recA) = (); recs(recB) = ()
      }
    }
    val clustersOf = mutable.LongMap.empty[Int]
    recordsOf.values.foreach(_.keysIterator.foreach(r => clustersOf(r) = clustersOf.getOrElse(r, 0) + 1))
    clustersOf.iterator.map { case (r, n) => r -> math.log(numClusters.toDouble / n) }.toMap
  }

  /** Fit a cluster model from its selected training vectors: the
    * classifier, and the histograms of those vectors that sel_base
    * compares new problems against.
    */
  def fit(
      id: Int,
      training: IndexedSeq[PoolVector],
      numFeatures: Int,
      cfg: MoRERConfig,
  ): ClusterModel = {
    val train = training.map(v => LabeledVector(v.features, v.oracleLabel))
    val model =
      if (train.isEmpty) RandomForest(IndexedSeq(repro.ml.Leaf(0.0)))
      else RandomForest.fit(train, numTrees = cfg.rfTrees, maxDepth = cfg.rfDepth, seed = cfg.seed + id)
    val hist = DistributionAnalysis.histogramOfVectors(
      s"cluster$id", training.map(_.features), numFeatures, cfg.numBins)
    ClusterModel(id, model, training, hist)
  }
}
