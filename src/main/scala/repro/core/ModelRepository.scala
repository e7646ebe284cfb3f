package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
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
  *                      integrated into the graph so far
  * @param vectorCounts  per-problem pair counts (|p_{k,l}|)
  * @param solvedT       T — problems whose vectors have been used for
  *                      training-data selection
  * @param labelsSpent   labeling budget consumed so far
  */
final case class Repository(
    clusters: Map[Int, ClusterModel],
    graph: ProblemGraph,
    modelOf: Map[String, Int],
    problemHists: Map[String, IndexedSeq[FeatureHistogram]],
    vectorCounts: Map[String, Long],
    solvedT: Set[String],
    labelsSpent: Int,
    nextId: Int,
) {
  def numClusters: Int = clusters.size
}

object ModelRepository {

  /** Classify `pairs` with a broadcast model — adds a `pred` column. */
  def classify(spark: SparkSession, pairs: DataFrame, model: RandomForest): DataFrame = {
    val b = spark.sparkContext.broadcast(model)
    val predUdf = udf((f: Seq[Double]) => b.value.predict(f.toArray))
    pairs.withColumn("pred", predUdf(col("features")))
  }

  /** Classify pairs of many problems in one distributed pass, each
    * problem with its assigned model (problemId → model map broadcast
    * into the UDF) — the "repository applied over partitioned record
    * pairs" path used by sel_base.
    */
  def classifyWithAssignments(
      spark: SparkSession,
      pairs: DataFrame,
      assignment: Map[String, RandomForest],
  ): DataFrame = {
    val b = spark.sparkContext.broadcast(assignment)
    val predUdf = udf { (pid: String, f: Seq[Double]) =>
      b.value.get(pid).map(_.predict(f.toArray)).getOrElse(0)
    }
    pairs.withColumn("pred", predUdf(col("problemId"), col("features")))
  }

  /** IDF-style record-uniqueness scores s_r (Eqs. 11–12): for every
    * record, count the distinct ER-problem clusters it occurs in and
    * score log(|C_P| / |C_{P|r}|). (The paper's Eq. 12 writes the ratio
    * inverted, which is ≤ 0 for all records; we use the standard IDF
    * orientation the text describes — "how unique a feature vector is".)
    *
    * One Spark job collects the (problemId, recA, recB) triples; the
    * per-record cluster counts are made on the driver, since a cluster
    * pool's pairs fit it (see `ActiveLearner.selectByScore`).
    */
  def idfScores(
      spark: SparkSession,
      pairs: DataFrame,
      clusterOfProblem: Map[String, Int],
  ): Map[Long, Double] = {
    val numClusters = clusterOfProblem.values.toSet.size
    if (numClusters == 0) return Map.empty
    val recordsOf = mutable.HashMap.empty[Int, mutable.LongMap[Unit]]
    pairs.select("problemId", "recA", "recB").collect().foreach { r =>
      clusterOfProblem.get(r.getString(0)).foreach { c =>
        val recs = recordsOf.getOrElseUpdate(c, mutable.LongMap.empty)
        recs(r.getLong(1)) = (); recs(r.getLong(2)) = ()
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
      seed: Long,
  ): ClusterModel = {
    val train = training.map(v => LabeledVector(v.features, v.oracleLabel))
    val model =
      if (train.isEmpty) RandomForest(IndexedSeq(repro.ml.Leaf(0.0)))
      else RandomForest.fit(train, numTrees = cfg.rfTrees, maxDepth = cfg.rfDepth, seed = seed)
    val hist = DistributionAnalysis.histogramOfVectors(
      s"cluster$id", training.map(_.features), numFeatures, cfg.numBins)
    ClusterModel(id, model, training, hist)
  }
}
