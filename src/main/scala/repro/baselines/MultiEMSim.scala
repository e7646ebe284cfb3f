package repro.baselines

import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.ml.TextFeatures

/** Simulator for MultiEM (Zeng et al., ICDE 2024) — unsupervised
  * multi-table matching with pre-trained embeddings and hierarchical
  * source merging. Substitution (DESIGN.md §3): hashed bag-of-token
  * embeddings with plain cosine similarity, the decision threshold m
  * grid-searched and — as in the paper's own protocol — the best test
  * configuration reported. No training phase, so it is the fastest
  * method; a single global threshold over heterogeneous sources is also
  * why it trails the supervised methods on Dexter/WDC. Nothing is drawn
  * at random.
  */
object MultiEMSim {
  val Dim = 1 << 13
  val Grid: Seq[Double] = (5 to 19).map(_ * 0.05)

  def run(ds: ERDataset, testIds: Seq[String]): Confusion = {
    val sim = (aText: String, bText: String) => {
      val (ia, va) = TextFeatures.hashed(TextFeatures.tokens(aText), Dim)
      val (ib, vb) = TextFeatures.hashed(TextFeatures.tokens(bText), Dim)
      TextFeatures.cosine(ia, va, ib, vb)
    }
    val scored = BaselineUtil.scoreText(ds.pairsOf(testIds), sim).cache()
    try Grid.map(t => BaselineUtil.confusionAt(scored, t)).maxBy(_.f1)
    finally scored.unpersist()
  }
}
