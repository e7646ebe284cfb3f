package repro.baselines

import scala.collection.mutable
import repro.erdata.{ERDataset, PartitionJob}
import repro.eval.Metrics.Confusion
import repro.ml.{MLP, PoolVector, TextFeatures}

/** Shared plumbing for the baseline simulators: the one scoring pass over
  * the text of record pairs (each record's `ERDataset.recordText`, the
  * "COL val" style input of the language-model methods reduced to a token
  * stream), and the one supervised text-pair classifier that Ditto and
  * AnyMatch configure.
  */
object BaselineUtil {
  /** Per-record dense hash dims of the text-pair classifier (pair input = 2·Dim). */
  val Dim = 256
  val Hidden = 64

  /** `score(aText, bText)` and the label of every pair of the problems
    * `ids`, in `poolOf` order. One shuffle-free `PartitionJob` over
    * `ds.pairRows` skips the runs of other problems and scores the rest;
    * the record texts ship in the job's closure. `score` runs on the
    * executors, so it must be a serializable function value (not a method
    * of a non-serializable object); what it captures, such as a fitted
    * model, ships with the job.
    */
  def textScores(ds: ERDataset, ids: Seq[String], score: (String, String) => Double): (Array[Double], Array[Int]) = {
    val wanted = ids.toSet
    val text = ds.recordText
    val parts = PartitionJob.run(ds.pairRows) { blocks =>
      val scores = mutable.ArrayBuilder.make[Double]
      val labels = mutable.ArrayBuilder.make[Int]
      blocks.foreach(b => b.runs.foreach { case (pid, rows) =>
        if (wanted(pid)) rows.foreach { i =>
          scores += score(text(b.recA(i)), text(b.recB(i)))
          labels += b.label(i)
        }
      })
      (scores.result(), labels.result())
    }
    (parts.flatMap(_._1), parts.flatMap(_._2))
  }

  /** The supervised text-pair classifier behind Ditto and AnyMatch: each
    * record's text becomes `terms`, hashed densely into `Dim` dims; a pair
    * is |a-b| ⊕ a⊙b; a one-hidden-layer `MLP` (`Hidden` units) is trained
    * for `epochs` on the `draw` of the pairs of `trainIds`, in pool order,
    * and evaluated on the pairs of `testIds`.
    */
  def textPairClassifier(
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      terms: String => Array[String],
      fraction: Double,
      cap: Int,
      epochs: Int,
      seed: Long,
  ): Confusion = {
    val pairFeatures = (aText: String, bText: String) =>
      TextFeatures.densePair(
        TextFeatures.denseHashed(terms(aText), Dim),
        TextFeatures.denseHashed(terms(bText), Dim))

    val drawn = draw(ds.poolOf(trainIds), fraction, cap, seed)
    val text = ds.recordText
    val xs = drawn.map(v => pairFeatures(text(v.recA), text(v.recB)))
    val model = MLP.fitClassifier(xs, drawn.map(_.oracleLabel), hidden = Hidden, epochs = epochs, lr = 0.1, seed = seed)

    val (scores, labels) = textScores(ds, testIds, (a, b) => model.predictProb(pairFeatures(a, b)))
    Confusion.at(scores, labels, 0.5)
  }

  /** The pairs of `pool` whose `pairRank` under `seed` falls below
    * `fraction`, or below cap/n when that is smaller (about `cap` of the
    * n pairs), in pool order.
    */
  private[baselines] def draw(pool: IndexedSeq[PoolVector], fraction: Double, cap: Int, seed: Long): IndexedSeq[PoolVector] = {
    val keep = math.min(fraction, cap.toDouble / pool.size)
    pool.filter(v => ERDataset.pairRank(v.recA, v.recB, seed) < keep)
  }
}
