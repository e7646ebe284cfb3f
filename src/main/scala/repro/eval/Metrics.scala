package repro.eval

/** Linkage-quality metrics: the `Confusion` every method reports, counted
  * on the driver (`ModelRepository.confusion` adds per-partition counts;
  * the text baselines count their scores with `Confusion.at`), and the
  * F1-best threshold on a grid.
  */
object Metrics {

  final case class Confusion(tp: Long, fp: Long, fn: Long, tn: Long) {
    def +(o: Confusion): Confusion = Confusion(tp + o.tp, fp + o.fp, fn + o.fn, tn + o.tn)
    def precision: Double = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    def recall: Double    = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    def f1: Double = {
      val p = precision; val r = recall
      if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    }
    def total: Long = tp + fp + fn + tn
  }
  object Confusion {
    val empty: Confusion = Confusion(0, 0, 0, 0)

    /** Confusion of predicting a match where `scores(i)` ≥ `threshold`,
      * against the 0/1 `labels(i)`.
      */
    def at(scores: Array[Double], labels: Array[Int], threshold: Double): Confusion = {
      var tp, fp, fn, tn = 0L
      var i = 0
      while (i < scores.length) {
        if (scores(i) >= threshold) { if (labels(i) == 1) tp += 1 else fp += 1 }
        else if (labels(i) == 1) fn += 1 else tn += 1
        i += 1
      }
      Confusion(tp, fp, fn, tn)
    }
  }

  /** The threshold of `grid` whose `Confusion.at` has the largest F1, the
    * first in grid order on a tie.
    */
  def bestThreshold(grid: Seq[Double], scores: Array[Double], labels: Array[Int]): Double =
    grid.maxBy(t => Confusion.at(scores, labels, t).f1)

  /** Sample mean and (population) standard deviation. */
  def meanStd(xs: Seq[Double]): (Double, Double) = {
    if (xs.isEmpty) return (0.0, 0.0)
    val m = xs.sum / xs.size
    val v = xs.map(x => (x - m) * (x - m)).sum / xs.size
    (m, math.sqrt(v))
  }
}
