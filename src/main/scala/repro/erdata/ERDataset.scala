package repro.erdata

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

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
  *                  features: array&lt;double&gt;, label)
  * @param specs     the feature definitions, in `features` array order
  * @param problems  every ER problem the generator configuration implies
  *                  (a problem may have no candidate pairs in `pairs`)
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
}

object ERDataset {

  /** All of the `n` rows of `rows` when n ≤ cap, else a seeded Bernoulli
    * sample of fraction cap/n (about `cap` rows). The caller supplies `n`,
    * so a caller that already knows the size spends no job counting it.
    */
  def sampleUpTo(rows: DataFrame, n: Long, cap: Int, seed: Long): DataFrame =
    if (n <= cap) rows else rows.sample(withReplacement = false, cap.toDouble / n, seed)
}
