package repro.baselines

import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.ml.TextFeatures

/** Simulator for AnyMatch (Zhang et al., EDBT 2025) — small-language-model
  * matching (GPT-2) trained on a *sampled* subset of pairs. Substitution
  * (DESIGN.md §3): the text-pair classifier of `BaselineUtil` over dense
  * hashed char-3-gram features, trained on n_r sampled training pairs.
  * Training on the sample rather than the full pair set is what gives
  * AnyMatch its runtime edge over Ditto in the paper; quality sits
  * between the unsupervised methods and the fully-supervised ones.
  */
object AnyMatchSim {
  /** n_r — parameterized sample size of training record pairs. */
  val DefaultSample = 5000

  def run(
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      sampleSize: Int = DefaultSample,
      epochs: Int = 15,
      seed: Long = 7,
  ): Confusion =
    BaselineUtil.textPairClassifier(ds, trainIds, testIds,
      terms = TextFeatures.charNGrams(_), fraction = 1.0, cap = sampleSize, epochs = epochs, seed = seed)
}
