package repro.perfbench

/** Order statistics used for every reported timing. */
object Stats {

  /** Linear interpolation between closest ranks (R type 7). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val h = (s.size - 1) * p / 100.0
    val lo = h.floor.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** The percentiles a timing may be reported at, in tenths of a percent. */
  val Ladder: Seq[Int] = Seq(500, 900, 950, 990, 999)

  /** Number of the `n` samples that lie beyond the percentile `pTenths`
    * (in tenths of a percent): `n - ceil(n * p)`, in exact arithmetic.
    */
  def beyond(n: Int, pTenths: Int): Int = n - ((n.toLong * pTenths + 999) / 1000).toInt

  /** The highest ladder percentile with at least `minBeyond` samples
    * beyond it, in tenths of a percent; None when even the median lacks
    * them.
    */
  def tailPercentile(n: Int, minBeyond: Int = 10): Option[Int] =
    Ladder.filter(beyond(n, _) >= minBeyond).lastOption
}
