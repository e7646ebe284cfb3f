package repro.baselines

import org.apache.spark.sql.functions._
import scala.util.Random
import repro.erdata.ERDataset
import repro.eval.Metrics
import repro.eval.Metrics.Confusion
import repro.ml.{MLP, TextFeatures}

/** Simulator for Sudowoodo (Wang et al., ICDE 2023) — contrastive
  * self-supervised representation learning plus a semi-supervised head.
  * Substitution (DESIGN.md §3): the transformer encoder is replaced by a
  * one-hidden-layer neural encoder over dense hashed token features,
  * trained with a triplet margin objective over (record, token-dropout
  * augmentation, random negative) triples for many epochs over *all*
  * records of the corpus. Self-supervised neural training over the
  * whole corpus is the dominant cost — Sudowoodo is the slowest method,
  * as in the paper — and the single global representation is why it
  * degrades on heterogeneous multi-source data. The semi-supervised head
  * fits a similarity threshold with the same labeling budget MoRER gets.
  */
object SudowoodoSim {
  val Dim = 256
  val Hidden = 48
  val DefaultEpochs = 40
  /** The head's threshold grid: 0.05 steps over (-1, 1). */
  val Grid: Seq[Double] = (-19 to 19).map(_ * 0.05)

  def run(
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      budget: Int,
      epochs: Int = DefaultEpochs,
      seed: Long = 7,
  ): Confusion = {
    // 1. Self-supervised corpus: every record's token stream.
    val recs = ds.records
      .select(concat_ws(" ", col("a1"), col("a2"), col("a3")) as "text")
      .collect().map(_.getString(0))
    val tokenized = recs.map(TextFeatures.tokens)
    val dense = tokenized.map(t => TextFeatures.denseHashed(t, Dim))
    val rng = new Random(seed)

    // 2. Contrastive encoder training: anchor = record, positive =
    //    token-dropout view, negative = random other record; `epochs`
    //    passes over the full corpus.
    val triplets = Iterator.range(0, epochs).flatMap { _ =>
      Iterator.range(0, recs.length).flatMap { idx =>
        val toks = tokenized(idx)
        if (toks.isEmpty) Iterator.empty
        else {
          val aug = toks.filter(_ => rng.nextDouble() >= 0.3)
          val pos = TextFeatures.denseHashed(if (aug.nonEmpty) aug else toks, Dim)
          val neg = dense(rng.nextInt(recs.length))
          Iterator.single((dense(idx), pos, neg))
        }
      }
    }
    val encoder = MLP.fitEncoder(triplets, in = Dim, hidden = Hidden, lr = 0.02, seed = seed)

    // 3. Semi-supervised head: spend the labeling budget on solved-task
    //    pairs and fit the F1-optimal embedding-cosine threshold.
    val sim = (aText: String, bText: String) => {
      val ea = encoder.embed(TextFeatures.denseHashed(TextFeatures.tokens(aText), Dim))
      val eb = encoder.embed(TextFeatures.denseHashed(TextFeatures.tokens(bText), Dim))
      TextFeatures.denseCosine(ea, eb)
    }

    //    The labeled pairs are the `budget` lowest-ranked ones.
    val labeled = ds.poolOf(trainIds)
      .sortBy(v => (ERDataset.pairRank(v.recA, v.recB, seed), v.recA, v.recB)).take(budget)
    val text = ds.recordText
    val t = threshold(labeled.map(v => sim(text(v.recA), text(v.recB))).toArray, labeled.map(_.oracleLabel).toArray)

    val (scores, labels) = BaselineUtil.textScores(ds, testIds, sim)
    Confusion.at(scores, labels, t)
  }

  /** The F1-optimal threshold of `Grid` over a labeled sample's
    * similarities and labels; 0.5 for an empty sample.
    */
  private[baselines] def threshold(sims: Array[Double], labels: Array[Int]): Double =
    if (labels.isEmpty) 0.5 else Metrics.bestThreshold(Grid, sims, labels)
}
