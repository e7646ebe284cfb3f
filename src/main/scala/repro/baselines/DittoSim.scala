package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.ml.TextFeatures

/** Simulator for Ditto (Li et al., VLDB 2020) — supervised
  * transformer-based matching. Substitution (DESIGN.md §3): DistilBERT
  * fine-tuning is replaced by the text-pair classifier of `BaselineUtil`
  * over dense hashed token features (|a-b| ⊕ a⊙b, 512-dim input,
  * 64 hidden units) trained with the paper's 10 epochs over the full
  * (or 50%) training pair set. The per-example O(in·hidden) SGD cost
  * reproduces the "neural fine-tuning dominates the runtime" shape, and
  * quality tracks the training-data size — the two axes the paper
  * analyzes for Ditto.
  */
object DittoSim {
  val TrainCap = 120000  // driver-side cap (stand-in for GPU batch limits)

  /** Train on `trainFraction` of the pairs of `trainIds`, evaluate on
    * `testIds`. Returns the pooled confusion on the test pairs.
    */
  def run(
      spark: SparkSession,
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      trainFraction: Double = 1.0,
      epochs: Int = 10,
      seed: Long = 7,
  ): Confusion =
    BaselineUtil.textPairClassifier(spark, ds, trainIds, testIds,
      terms = TextFeatures.tokens, fraction = trainFraction, cap = TrainCap, epochs = epochs, seed = seed)
}
