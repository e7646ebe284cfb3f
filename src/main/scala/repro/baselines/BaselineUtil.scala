package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.erdata.{ERDataset, PartitionJob}
import repro.eval.Metrics.Confusion
import repro.ml.{MLP, TextFeatures}

/** Shared plumbing for the baseline simulators: record-pair text
  * serialization (the "COL val" style input of the language-model
  * methods, reduced to token streams), the one scoring pass over text
  * pairs, and the one supervised text-pair classifier that Ditto and
  * AnyMatch configure.
  */
object BaselineUtil {
  /** Per-record dense hash dims of the text-pair classifier (pair input = 2·Dim). */
  val Dim = 256
  val Hidden = 64

  /** Columns for text-pair classification: aText, bText, label. */
  def textPairs(pairs: DataFrame): DataFrame = {
    def side(p: String) = concat_ws(" ",
      col(s"${p}_a1"), col(s"${p}_a2"), col(s"${p}_a3"),
      when(col(s"${p}_num1") > 0, col(s"${p}_num1").cast("int").cast("string")).otherwise(""),
      when(col(s"${p}_num2") > 0, col(s"${p}_num2").cast("int").cast("string")).otherwise(""))
    pairs.select(
      col("problemId"), col("recA"), col("recB"),
      side("a") as "aText", side("b") as "bText", col("label"))
  }

  /** `score(aText, bText)` and the label of every text pair of the
    * problems `ids`, in `pairsOf` order: one shuffle-free `PartitionJob`
    * pass over the planned rows of `textPairs(ds.pairsOf(ids))`. `score`
    * runs on the executors, so it must be a serializable function value
    * (not a method of a non-serializable object); what it captures, such
    * as a fitted model, ships with the job.
    */
  def textScores(ds: ERDataset, ids: Seq[String], score: (String, String) => Double): (Array[Double], Array[Int]) = {
    val rows = textPairs(ds.pairsOf(ids)).select("aText", "bText", "label").queryExecution.toRdd
    val parts = PartitionJob.run(rows) { it =>
      val scores = mutable.ArrayBuilder.make[Double]
      val labels = mutable.ArrayBuilder.make[Int]
      it.foreach { r =>
        scores += score(r.getUTF8String(0).toString, r.getUTF8String(1).toString)
        labels += r.getInt(2)
      }
      (scores.result(), labels.result())
    }
    (parts.flatMap(_._1), parts.flatMap(_._2))
  }

  /** The supervised text-pair classifier behind Ditto and AnyMatch: each
    * record's text becomes `terms`, hashed densely into `Dim` dims; a pair
    * is |a-b| ⊕ a⊙b; a one-hidden-layer `MLP` (`Hidden` units) is trained
    * for `epochs` on `fraction` of the pairs of `trainIds`, capped at about
    * `cap` pairs, and evaluated on the pairs of `testIds`.
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

    val all = textPairs(ds.pairsOf(trainIds))
    val drawn = if (fraction >= 1.0) all else all.sample(withReplacement = false, fraction, seed)
    val rows = ERDataset.sampleUpTo(drawn, drawn.count(), cap, seed).collect()
    val xs = rows.map(r => pairFeatures(r.getAs[String]("aText"), r.getAs[String]("bText"))).toIndexedSeq
    val ys = rows.map(_.getAs[Int]("label")).toIndexedSeq
    val model = MLP.fitClassifier(xs, ys, hidden = Hidden, epochs = epochs, lr = 0.1, seed = seed)

    val (scores, labels) = textScores(ds, testIds, (a, b) => model.predictProb(pairFeatures(a, b)))
    Confusion.at(scores, labels, 0.5)
  }
}
