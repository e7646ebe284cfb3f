package repro.baselines

import repro.core.ModelRepository
import repro.erdata.{ERDataset, PartitionJob}
import repro.eval.Metrics.Confusion
import repro.ml.{LabeledVector, RandomForest}

/** Reimplementation of TransER (Kirielle et al., EDBT 2022) —
  * homogeneous transfer learning for ER: every unsolved (target) feature
  * vector is pseudo-labeled from its k nearest labeled vectors in the
  * solved (source) tasks when the neighborhood's class confidence
  * clears t_p, and a target classifier is trained on the pseudo-labels.
  *
  * The nearest-neighbor search is blocked by a quantized bucket (grid 0.2
  * per feature): each target vector is compared with every source vector
  * of its own bucket, which is the cost profile the paper attributes to
  * TransER (slow on corpora with many feature vectors). A run is three
  * Spark jobs: the source pool collect, one pass over the target pairs
  * that pseudo-labels them with the bucketed sources in its closure, and
  * the scoring pass.
  */
object TransER {
  val K = 10    // neighbors that vote on a target vector's pseudo-label
  val Tp = 0.9  // t_p: the share of their votes a pseudo-label needs
  val TrainCap = 20000
  /** Sources kept per bucket: non-match vectors concentrate in the
    * all-low bucket, and k nearest of a 500-vector sample ≈ k nearest of
    * the full bucket for kNN voting purposes.
    */
  val BucketCap = 500

  /** The source vectors of one bucket, by label, each row-major: row j's
    * features are `width` values from `j * width`.
    */
  final class Sources(val nonMatches: Array[Double], val matches: Array[Double]) extends Serializable

  def run(
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      trainFraction: Double = 1.0,
      seed: Long = 7,
  ): Confusion = {
    val width = ds.numFeatures

    // Sources: every draw keeps or orders the pairs by their rank; each
    // bucket keeps its BucketCap lowest by (rank, recA, recB).
    val ranked = ds.poolOf(trainIds).map(v => (ERDataset.pairRank(v.recA, v.recB, seed), v))
    val kept = if (trainFraction >= 1.0) ranked else ranked.filter(_._1 < trainFraction)
    val sources = kept.groupBy { case (_, v) => bucket(v.features, 0, width) }.map { case (b, vs) =>
      val top = vs.sortBy { case (rank, v) => (rank, v.recA, v.recB) }.take(BucketCap).map(_._2)
      def rows(label: Int) = top.filter(_.oracleLabel == label).flatMap(_.features).toArray
      b -> new Sources(rows(0), rows(1))
    }

    // Targets: a vector whose bucket has no sources gets no pseudo-label.
    val wanted = testIds.toSet
    val pseudo = PartitionJob.run(ds.pairRows)(_.flatMap { b =>
      b.runs.filter(run => wanted(run._1)).flatMap { case (pid, rows) =>
        rows.iterator.flatMap { i =>
          sources.get(bucket(b.features, i * width, width))
            .flatMap(vote(b.features, i * width, width, _))
            .map(label => ((pid, b.recA(i), b.recB(i)), LabeledVector(b.featuresOf(i), label)))
        }
      }
    }.toArray).flatten

    // About TrainCap of the n pseudo-labels: those ranked below TrainCap/n.
    val n = pseudo.length
    val capped =
      if (n <= TrainCap) pseudo
      else pseudo.filter { case ((_, a, b), _) => ERDataset.pairRank(a, b, seed) < TrainCap.toDouble / n }
    val train = capped.sortBy(_._1).map(_._2).toIndexedSeq

    val model =
      if (train.isEmpty || train.map(_.label).distinct.size < 2) {
        // degenerate pseudo-label set: threshold-style fallback forest
        RandomForest.fit(IndexedSeq(
          LabeledVector(Array.fill(width)(1.0), 1),
          LabeledVector(Array.fill(width)(0.0), 0)), numTrees = 1, maxDepth = 1, seed = seed)
      } else RandomForest.fit(train, numTrees = 10, maxDepth = 8, seed = seed)

    ModelRepository.confusion(ds, testIds, testIds.map(_ -> model).toMap)
  }

  /** The bucket of the `width` features from `off` in `xs`: their grid
    * cells min(⌊5x⌋, 4), read as the base-5 digits of one number. The
    * features are similarities in [0, 1], so each digit is in 0..4, and
    * the number fits an `Int` up to 13 features (the domains have 4 or 5).
    */
  private def bucket(xs: Array[Double], off: Int, width: Int): Int = {
    var b = 0
    var f = 0
    while (f < width) { b = b * 5 + math.min((xs(off + f) * 5).toInt, 4); f += 1 }
    b
  }

  /** The pseudo-label of the target whose `width` features start at `off`
    * in `xs`: the share of matches among its K nearest sources, ordered by
    * (squared distance summed in feature order, label), is its confidence;
    * 1 when that is at least Tp, 0 when at most 1 − Tp, none otherwise.
    * The K nearest are a merge of the two labels' sorted distances that
    * takes the non-match on a tie; sources tied on (distance, label) are
    * interchangeable, so the vote does not depend on their order.
    */
  private[baselines] def vote(xs: Array[Double], off: Int, width: Int, s: Sources): Option[Int] = {
    def sortedDistances(src: Array[Double]) = {
      val ds = Array.tabulate(src.length / width) { j =>
        var sum = 0.0
        var f = 0
        while (f < width) { val e = xs(off + f) - src(j * width + f); sum += e * e; f += 1 }
        sum
      }
      java.util.Arrays.sort(ds)
      ds
    }
    val (d0, d1) = (sortedDistances(s.nonMatches), sortedDistances(s.matches))
    val k = math.min(K, d0.length + d1.length)
    var n0, n1 = 0
    while (n0 + n1 < k) if (n1 == d1.length || (n0 < d0.length && d0(n0) <= d1(n1))) n0 += 1 else n1 += 1
    val conf = n1.toDouble / k
    if (conf >= Tp) Some(1) else if (conf <= 1.0 - Tp) Some(0) else None
  }
}
