package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.erdata.{FeatureSpec, JaccardTokens, LevenshteinSim, NumericSim}

/** Similarity feature computation over blocked record pairs — the
  * `w ∈ p_{k,l}` vectors of the paper, computed as Spark SQL expressions
  * (one narrow projection, no extra shuffle).
  *
  * All features live in [0,1]; a missing attribute on either side yields
  * feature value 0 (the conventional "no evidence" encoding for
  * similarity-feature ER).
  */
object FeatureVectors {

  /** The lower-cased alphanumeric tokens of a string column. */
  def tokens(c: Column): Column =
    filter(split(lower(trim(c)), "[^a-z0-9]+"), t => t =!= "")

  /** Token-set Jaccard similarity of two token-array columns (`tokens`). */
  def jaccard(ta: Column, tb: Column): Column =
    when(size(ta) === 0 || size(tb) === 0, 0.0)
      .otherwise(size(array_intersect(ta, tb)).cast("double") /
                 size(array_union(ta, tb)).cast("double"))

  /** Normalized Levenshtein similarity: 1 - lev/maxLen; 0 if either empty. */
  def levSim(a: Column, b: Column): Column = {
    val la = length(a); val lb = length(b)
    when(la === 0 || lb === 0 || a.isNull || b.isNull, 0.0)
      .otherwise(lit(1.0) - levenshtein(a, b).cast("double") / greatest(la, lb).cast("double"))
  }

  /** Normalized absolute difference: 1 - |a-b|/max(a,b), clipped to [0,1].
    * Values <= 0 encode "missing" and yield 0.
    */
  def numSim(a: Column, b: Column): Column =
    when(a.isNull || b.isNull || a <= 0 || b <= 0, 0.0)
      .otherwise(greatest(lit(0.0), lit(1.0) - abs(a - b) / greatest(a, b)))

  private def tokenCol(side: String, c: String): String = s"${side}_${c}_tokens"

  private def featureExpr(spec: FeatureSpec): Column = spec match {
    case JaccardTokens(c, _)  => jaccard(col(tokenCol("a", c)), col(tokenCol("b", c)))
    case LevenshteinSim(c, _) => levSim(col(s"a_$c"), col(s"b_$c"))
    case NumericSim(c, _)     => numSim(col(s"a_$c"), col(s"b_$c"))
  }

  /** Adds a `features: array<double>` column per the spec list order. Each
    * Jaccard attribute is tokenized once per side, in a projection of its
    * own, rather than once per use in the Jaccard expression.
    */
  def withFeatures(pairs: DataFrame, specs: Seq[FeatureSpec]): DataFrame = {
    val tokenized = for (JaccardTokens(c, _) <- specs; side <- Seq("a", "b"))
      yield tokenCol(side, c) -> tokens(col(s"${side}_$c"))
    pairs.withColumns(tokenized.toMap)
      .withColumn("features", array(specs.map(featureExpr): _*))
      .drop(tokenized.map(_._1): _*)
  }
}
