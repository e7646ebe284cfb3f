package repro.al

import java.util.stream.IntStream
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.hash.Murmur3_x86_32
import scala.collection.mutable
import scala.jdk.CollectionConverters._
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
    /** k in Eq. 10 — committee size of the bootstrap uncertainty (paper: 100). */
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

  /** Scores every pool vector (highest is labeled first), given the pool,
    * the vectors labeled so far and the iteration number.
    */
  type Scorer = (IndexedSeq[PoolVector], IndexedSeq[PoolVector], Int) => Array[Double]

  /** The AL selection loop every learner shares; a learner supplies only
    * its `Scorer`. The pool is collected to the driver once — one Spark
    * job, or none for a `poolFrame` — and every later step runs
    * in-process: a cluster pool is at most a few hundred thousand
    * 4-feature vectors, far cheaper to score than a Spark job per
    * iteration costs. A pool no larger than the
    * budget is labeled whole, ordered by recA, then recB, so the order a
    * model is fitted in does not follow the pool's partitions. Otherwise
    * the loop starts from `warmStart` and labels the `batchSize`
    * best-scored unlabeled pairs per iteration (ties broken by recA, then
    * recB) until the budget is spent or the pool runs dry.
    */
  def selectByScore(pool: DataFrame, budget: Int, cfg: ALConfig)(
      score: Scorer,
  ): IndexedSeq[PoolVector] = {
    val vectors = pool.collect().toIndexedSeq.map(toPoolVector)
    if (vectors.size <= budget) return vectors.sortBy(v => (v.recA, v.recB))
    val bad = vectors.find(v => v.recA < 0 || v.recB < 0 || v.recA > MaxRecId || v.recB > MaxRecId)
    require(bad.isEmpty, s"record ids of pair ${bad.map(v => (v.recA, v.recB)).orNull} " +
      "do not fit a pair key")

    var selected = warmStart(vectors, math.min(cfg.initSize, budget))
    val labeled = mutable.HashSet.from(selected.map(v => pairKey(v.recA, v.recB)))
    var iter = 0
    while (selected.size < budget) {
      val batch = math.min(cfg.batchSize, budget - selected.size)
      val scores = score(vectors, selected, iter)
      val unlabeled = vectors.indices.iterator.filterNot { i =>
        labeled(pairKey(vectors(i).recA, vectors(i).recB))
      }
      val picked = top(unlabeled, batch, byKey(vectors, scores(_), descending = true)).map(vectors)
      if (picked.isEmpty) return selected
      picked.foreach(v => labeled += pairKey(v.recA, v.recB))
      selected = selected ++ picked
      iter += 1
    }
    selected
  }

  /** Fills one score per index `0 until n` in parallel; each slot is
    * written once, so the result does not depend on the thread schedule.
    */
  def scoreEach(n: Int)(f: Int => Double): Array[Double] = {
    val out = new Array[Double](n)
    IntStream.range(0, n).parallel().forEach(i => out(i) = f(i))
    out
  }

  /** Record ids are globally unique, so `(recA, recB)` identifies a pair;
    * ids up to 32 bits pack into one Long key.
    */
  private val MaxRecId = 0xFFFFFFFFL
  private def pairKey(recA: Long, recB: Long): Long = (recA << 32) | recB

  /** The pool columns, typed as in the pair table. */
  private val poolSchema: StructType = StructType(Seq(
    StructField("problemId", StringType),
    StructField("recA", LongType),
    StructField("recB", LongType),
    StructField("features", ArrayType(DoubleType)),
    StructField("label", IntegerType)))

  /** A pool the driver already holds, as a local DataFrame: its collect
    * runs no Spark job.
    */
  def poolFrame(spark: SparkSession, vectors: Seq[PoolVector]): DataFrame =
    spark.createDataFrame(
      vectors.map(v => Row(v.problemId, v.recA, v.recB, v.features.toSeq, v.oracleLabel)).asJava, poolSchema)

  def toPoolVector(r: Row): PoolVector = PoolVector(
    r.getAs[String]("problemId"),
    r.getAs[Long]("recA"),
    r.getAs[Long]("recB"),
    r.getAs[Seq[Double]]("features").toArray,
    r.getAs[Int]("label"))

  /** Double order as Spark SQL sorts it: -0.0 equals 0.0, NaN is largest. */
  private def compareSql(a: Double, b: Double): Int =
    if (a == b) 0 else java.lang.Double.compare(a, b)

  private def byRecords(a: PoolVector, b: PoolVector): Int = {
    val c = java.lang.Long.compare(a.recA, b.recA)
    if (c != 0) c else java.lang.Long.compare(a.recB, b.recB)
  }

  /** Pool indices ordered by `key`, then recA, recB — the order of
    * Spark's `orderBy(key, recA, recB)`.
    */
  private def byKey(vectors: IndexedSeq[PoolVector], key: Int => Double, descending: Boolean): Ordering[Int] =
    (i: Int, j: Int) => {
      val c = if (descending) compareSql(key(j), key(i)) else compareSql(key(i), key(j))
      if (c != 0) c else byRecords(vectors(i), vectors(j))
    }

  /** The first `k` of `xs` under `ord`, in order — a bounded heap, so
    * picking a batch costs O(n log k), not a full sort of the pool.
    */
  private def top[A](xs: IterableOnce[A], k: Int, ord: Ordering[A]): IndexedSeq[A] = {
    if (k <= 0) return IndexedSeq.empty
    val heap = mutable.PriorityQueue.empty[A](ord) // max-heap: the worst kept element on top
    xs.iterator.foreach { x =>
      if (heap.size < k) heap.enqueue(x)
      else if (ord.lt(x, heap.head)) { heap.dequeue(); heap.enqueue(x) }
    }
    heap.dequeueAll[A].reverse.toIndexedSeq
  }

  /** Spark SQL's `hash(recA, recB)`: Murmur3 over the two longs, seed 42. */
  private[al] def sparkHash(recA: Long, recB: Long): Int =
    Murmur3_x86_32.hashLong(recB, Murmur3_x86_32.hashLong(recA, 42))

  /** Deterministic class-covering warm start: a third of the sample from
    * the highest-mean-feature pairs (likely matches), a third from the
    * lowest (likely non-matches), a third hash-random for coverage of
    * the middle. Avoids the degenerate one-class seed that a uniform
    * random draw produces on match-skewed pools. The random third is
    * ordered by Spark SQL's `abs(hash(recA, recB))`, then recA, recB.
    */
  def warmStart(vectors: IndexedSeq[PoolVector], n: Int): IndexedSeq[PoolVector] = {
    val fmean = vectors.map(_.features.foldLeft(0.0)(_ + _)).toArray
    val third = math.max(1, n / 3)
    val idx = vectors.indices
    val hi = top(idx, n - 2 * third, byKey(vectors, fmean(_), descending = true))
    val lo = top(idx, third, byKey(vectors, fmean(_), descending = false))
    val rnd = top[Int](idx, third, Ordering.by { (i: Int) =>
      val v = vectors(i); (math.abs(sparkHash(v.recA, v.recB)), v.recA, v.recB)
    })
    (hi ++ lo ++ rnd).map(vectors).distinctBy(v => (v.problemId, v.recA, v.recB))
  }

  /** Mean IDF-style uniqueness score s(w) of a pair (Eq. 11). */
  def pairScore(idf: Map[Long, Double], recA: Long, recB: Long): Double =
    (idf.getOrElse(recA, 0.0) + idf.getOrElse(recB, 0.0)) / 2.0
}
