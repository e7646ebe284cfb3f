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

  private def tokens(c: Column): Column =
    filter(split(lower(trim(c)), "[^a-z0-9]+"), t => t =!= "")

  /** Token-set Jaccard similarity of two string columns. */
  def jaccard(a: Column, b: Column): Column = {
    val ta = tokens(a); val tb = tokens(b)
    when(size(ta) === 0 || size(tb) === 0, 0.0)
      .otherwise(size(array_intersect(ta, tb)).cast("double") /
                 size(array_union(ta, tb)).cast("double"))
  }

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

  private def featureExpr(spec: FeatureSpec): Column = spec match {
    case JaccardTokens(c, _)  => jaccard(col(s"a_$c"), col(s"b_$c"))
    case LevenshteinSim(c, _) => levSim(col(s"a_$c"), col(s"b_$c"))
    case NumericSim(c, _)     => numSim(col(s"a_$c"), col(s"b_$c"))
  }

  /** Adds a `features: array<double>` column per the spec list order. */
  def withFeatures(pairs: DataFrame, specs: Seq[FeatureSpec]): DataFrame =
    pairs.withColumn("features", array(specs.map(featureExpr): _*))
}
