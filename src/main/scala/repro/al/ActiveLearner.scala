package repro.al

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.ml.PoolVector

/** Shared AL contract and pool plumbing.
  *
  * A "pool" is a DataFrame of unlabeled candidate vectors — columns
  * (problemId, recA, recB, features, label) — restricted to the ER
  * problems an AL run may draw from. `label` is the ground truth that
  * plays the human labeling oracle: it is only *revealed* (converted to
  * training data) when a vector is selected, and each reveal costs one
  * unit of budget. This mirrors the paper's experimental setup, which
  * also charges gold labels against the budget.
  */
final case class ALConfig(
    /** k in Eq. 10 — committee size of the bootstrap uncertainty. */
    kModels: Int = 20,
    /** vectors labeled per AL iteration. */
    batchSize: Int = 100,
    /** size of the deterministic warm-start sample. */
    initSize: Int = 50,
)

trait ActiveLearner extends Serializable {
  def name: String

  /** Select and label up to `budget` vectors from `pool`.
    *
    * @param idf record-uniqueness scores s_r (Eqs. 11–12); empty map
    *            disables the extension.
    */
  def select(
      spark: SparkSession,
      pool: DataFrame,
      budget: Int,
      cfg: ALConfig,
      idf: Map[Long, Double],
      seed: Long,
  ): IndexedSeq[PoolVector]
}

object ActiveLearner {

  /** The AL selection loop every learner shares; a learner supplies only
    * `score`. Given the vectors labeled so far and the iteration number,
    * it returns every pool row with a `score` column (highest is labeled
    * first) and the broadcasts to release once the batch is picked.
    * A pool no larger than the budget is labeled whole. Otherwise
    * the loop starts from `warmStart` and labels the `batchSize`
    * best-scored unlabeled pairs per iteration (ties broken by pair id)
    * until the budget is spent or the pool runs dry.
    */
  def selectByScore(pool: DataFrame, budget: Int, cfg: ALConfig)(
      score: (IndexedSeq[PoolVector], Int) => (DataFrame, Seq[Broadcast[_]]),
  ): IndexedSeq[PoolVector] = {
    val stats = pool.agg(count(lit(1)), min(least(col("recA"), col("recB"))),
      max(greatest(col("recA"), col("recB")))).collect()(0)
    if (stats.getLong(0) <= budget) return pool.collect().toIndexedSeq.map(toPoolVector)
    require(stats.getLong(1) >= 0 && stats.getLong(2) <= MaxRecId,
      s"record ids [${stats.getLong(1)}, ${stats.getLong(2)}] do not fit a pair key")

    var selected = warmStart(pool, math.min(cfg.initSize, budget))
    var iter = 0
    while (selected.size < budget) {
      val batch = math.min(cfg.batchSize, budget - selected.size)
      val (scored, broadcasts) = score(selected, iter)
      val labeled = selected.map(v => pairKey(v.recA, v.recB))
      val picked = scored
        .filter(!pairKey(col("recA"), col("recB")).isin(labeled: _*))
        .orderBy(desc("score"), col("recA"), col("recB"))
        .limit(batch)
        .collect()
        .toIndexedSeq
        .map(toPoolVector)
      broadcasts.foreach(_.destroy())
      if (picked.isEmpty) return selected
      selected = selected ++ picked
      iter += 1
    }
    selected
  }

  /** Record ids are globally unique, so `(recA, recB)` identifies a pair;
    * ids up to 32 bits pack into one Long key.
    */
  private val MaxRecId = 0xFFFFFFFFL
  private def pairKey(recA: Long, recB: Long): Long = (recA << 32) | recB
  private def pairKey(recA: Column, recB: Column): Column = shiftleft(recA, 32).bitwiseOR(recB)

  def toPoolVector(r: Row): PoolVector = PoolVector(
    r.getAs[String]("problemId"),
    r.getAs[Long]("recA"),
    r.getAs[Long]("recB"),
    r.getAs[Seq[Double]]("features").toArray,
    r.getAs[Int]("label"))

  /** Deterministic class-covering warm start: a third of the sample from
    * the highest-mean-feature pairs (likely matches), a third from the
    * lowest (likely non-matches), a third hash-random for coverage of
    * the middle. Avoids the degenerate one-class seed that a uniform
    * random draw produces on match-skewed pools.
    */
  def warmStart(pool: DataFrame, n: Int): IndexedSeq[PoolVector] = {
    val withMean = pool.withColumn("fmean", aggregate(col("features"), lit(0.0), (a, x) => a + x))
    val third = math.max(1, n / 3)
    val hi = withMean.orderBy(desc("fmean"), col("recA"), col("recB")).limit(n - 2 * third)
    val lo = withMean.orderBy(asc("fmean"), col("recA"), col("recB")).limit(third)
    val rnd = withMean.orderBy(abs(hash(col("recA"), col("recB"))), col("recA")).limit(third)
    (hi.collect() ++ lo.collect() ++ rnd.collect()).toIndexedSeq
      .map(toPoolVector)
      .distinctBy(v => (v.problemId, v.recA, v.recB))
  }

  /** Mean IDF-style uniqueness score s(w) of a pair (Eq. 11). */
  def pairScore(idf: Map[Long, Double], recA: Long, recB: Long): Double =
    (idf.getOrElse(recA, 0.0) + idf.getOrElse(recB, 0.0)) / 2.0
}
