package repro.erdata

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.{col, hash, lit, pmod}
import org.apache.spark.unsafe.hash.Murmur3_x86_32
import org.apache.spark.unsafe.types.UTF8String
import repro.ml.PoolVector
import scala.collection.mutable

/** How one similarity feature of a record pair is computed.
  *
  * The generators use a generic record schema (three string attributes
  * `a1,a2,a3` and two numeric attributes `num1,num2`); each dataset
  * declares which of them carry meaning and which similarity function
  * applies — mirroring the paper's setup (string similarities for text,
  * normalized absolute differences for numbers).
  */
sealed trait FeatureSpec { def col: String; def name: String }
/** Token-set Jaccard (e.g. product title, album). */
final case class JaccardTokens(col: String, name: String) extends FeatureSpec
/** 1 - levenshtein/maxLen (e.g. brand, model number, artist). */
final case class LevenshteinSim(col: String, name: String) extends FeatureSpec
/** 1 - |a-b|/max(|a|,|b|) (e.g. price, year); 0 encodes a missing value. */
final case class NumericSim(col: String, name: String) extends FeatureSpec

/** One ER problem = the record-pair comparison task between two data
  * sources (possibly the same source, for dirty sources with intra-source
  * duplicates) restricted to one train/test split.
  */
final case class ERProblem(id: String, srcA: Int, srcB: Int, split: String)

/** A fully materialized multi-source ER dataset.
  *
  * @param name      dataset family name (dexter / wdc / music analogue)
  * @param records   source records: (source, split, recId, entityId, block,
  *                  a1, a2, a3, num1, num2)
  * @param pairs     blocked candidate record pairs with similarity features:
  *                  (problemId, srcA, srcB, split, recA, recB, entA, entB,
  *                  label, features: array&lt;double&gt;); no raw
  *                  attributes: a pair's text is `recordText` of its two
  *                  records
  * @param specs     the feature definitions, in `features` array order
  * @param problems  every ER problem the generator configuration implies
  *                  (a problem may have no candidate pairs in `pairs`)
  *
  * A caller caches `pairs` before the first pass over `pairRows` (a
  * `poolOf` or a `ModelRepository.confusion` call): `pairRows` is planned
  * once, then, and its blocks hold whatever `pairs` resolved to at that
  * moment. Later passes read only the blocks, so they keep working after
  * `pairs` is unpersisted.
  *
  * The pool collects and the scoring passes, MoRER's and the baselines',
  * read `pairRows`; the histograms keep their own scan of `pairs`, and
  * TransER's kNN join stays a query. Every random draw of pairs keeps or
  * orders them by `pairRank`, so which pairs a draw picks does not depend
  * on the partition layout.
  */
final case class ERDataset(
    name: String,
    records: DataFrame,
    pairs: DataFrame,
    specs: Seq[FeatureSpec],
    problems: Seq[ERProblem],
) {
  def numFeatures: Int = specs.length
  def problemIds: Seq[String] = problems.map(_.id)

  /** The candidate pairs of the problems `ids`. */
  def pairsOf(ids: Seq[String]): DataFrame = pairs.filter(col("problemId").isin(ids: _*))

  /** The pairs as one `PairBlock` per partition of `pairs`, in partition
    * order: the blocks that pool draws and scoring read. They are built by
    * one scan of `pairs`, planned on first use, and checkpointed locally:
    * the first pass computes and stores them, and cuts them from the plan
    * that made them, so each later job ships only this RDD and its
    * function (about 4 KB, not the plan's 95 KB) and reads primitive
    * arrays. A lost executor loses the blocks with no lineage to rebuild
    * them from; the session is `local[*]`, whose only executor is the
    * driver.
    */
  @transient lazy val pairRows: RDD[PairBlock] = {
    val width = numFeatures
    pairs.select("problemId", "recA", "recB", "features", "label").queryExecution.toRdd
      .mapPartitions(rows => Iterator(PairBlock.of(rows, width)))
      .localCheckpoint()
  }

  /** The pairs of the problems `ids` as driver-held pool vectors, in the
    * table's order: the rows of `pairsOf(ids).collect()`. One shuffle-free
    * Spark job, run directly on `pairRows` by `PartitionJob.run`, skips the
    * runs of other problems and reads the rest.
    */
  def poolOf(ids: Seq[String]): IndexedSeq[PoolVector] = {
    val wanted = ids.toSet
    PartitionJob.run(pairRows)(_.flatMap { b =>
      b.runs.filter(run => wanted(run._1)).flatMap { case (pid, rows) =>
        rows.iterator.map(i => PoolVector(pid, b.recA(i), b.recB(i), b.featuresOf(i), b.label(i)))
      }
    }.toArray).iterator.flatten.toIndexedSeq
  }

  /** Each record's text, by record id: a1, a2, a3 and the positive num1
    * and num2 as whole numbers, joined by single spaces (an empty value
    * keeps its place). This is the input of the text baselines; one Spark
    * job over `records` computes it on first use.
    */
  @transient lazy val recordText: Map[Long, String] = {
    def num(r: InternalRow, i: Int) = { val v = r.getDouble(i); if (v > 0) v.toInt.toString else "" }
    val rows = records.select("recId", "a1", "a2", "a3", "num1", "num2").queryExecution.toRdd
    PartitionJob.run(rows)(_.map { r =>
      r.getLong(0) -> Seq(r.getUTF8String(1).toString, r.getUTF8String(2).toString, r.getUTF8String(3).toString,
        num(r, 4), num(r, 5)).mkString(" ")
    }.toArray).iterator.flatten.toMap
  }
}

object ERDataset {

  /** The rank of the pair (recA, recB) under `seed`: a Murmur3 hash of
    * the pair, uniform in [0, 1). A draw keeps the pairs ranked below its
    * fraction, or the lowest-ranked ones, so it picks the same pairs
    * whatever order or partitions they come in.
    */
  def pairRank(recA: Long, recB: Long, seed: Long): Double = {
    val h = Murmur3_x86_32.hashLong(recB, Murmur3_x86_32.hashLong(recA, Murmur3_x86_32.hashLong(seed, 42)))
    (h & 0xFFFFFFFFL).toDouble / 4294967296.0
  }

  /** `pairRank` of a table's `recA` and `recB` columns, in SQL: Spark's
    * `hash` is the same Murmur3 chain with seed 42.
    */
  def pairRank(seed: Long): Column =
    pmod(hash(lit(seed), col("recA"), col("recB")), lit(1L << 32)) / lit(4294967296.0)
}

/** The pairs of one partition of `ERDataset.pairs`, column by column, in
  * the partition's row order. Row i is (`recA(i)`, `recB(i)`,
  * `featuresOf(i)`, `label(i)`). The rows come in runs of one problem:
  * run k is rows `runStart(k) until runStart(k + 1)` of problem
  * `runId(k)`. The table is sorted by problem within a partition, so a
  * problem has one run there, but a reader must not rely on it.
  */
final class PairBlock(
    val runId: Array[String],
    val runStart: Array[Int],
    val recA: Array[Long],
    val recB: Array[Long],
    val width: Int,
    /** Row-major: row i's features are `width` values from `i * width`. */
    val features: Array[Double],
    val label: Array[Int],
) extends Serializable {

  /** Each run's problem id and rows, in row order. */
  def runs: Iterator[(String, Range)] =
    runId.indices.iterator.map(k => (runId(k), runStart(k) until runStart(k + 1)))

  /** Row i's features, copied. */
  def featuresOf(i: Int): Array[Double] = java.util.Arrays.copyOfRange(features, i * width, (i + 1) * width)
}

object PairBlock {

  /** The block of `rows`, each (problemId, recA, recB, features, label)
    * with `width` features.
    */
  def of(rows: Iterator[InternalRow], width: Int): PairBlock = {
    val runId = Array.newBuilder[String]
    val runStart, label = new mutable.ArrayBuilder.ofInt
    val recA, recB = new mutable.ArrayBuilder.ofLong
    val features = new mutable.ArrayBuilder.ofDouble
    // The id points into the row's reused buffer: a run keeps a copy.
    var prev: UTF8String = null
    var n = 0
    rows.foreach { r =>
      val pid = r.getUTF8String(0)
      if (pid != prev) { prev = pid.clone(); runId += prev.toString; runStart += n }
      recA += r.getLong(1)
      recB += r.getLong(2)
      val xs = r.getArray(3)
      require(xs.numElements() == width, s"pair of $pid has ${xs.numElements()} features, expected $width")
      var f = 0
      while (f < width) { features += xs.getDouble(f); f += 1 }
      label += r.getInt(4)
      n += 1
    }
    runStart += n
    new PairBlock(runId.result(), runStart.result(), recA.result(), recB.result(), width, features.result(), label.result())
  }
}
