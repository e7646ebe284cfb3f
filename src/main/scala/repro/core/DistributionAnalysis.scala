package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.unsafe.types.UTF8String
import scala.collection.mutable
import repro.erdata.PartitionJob

/** Empirical distribution of one similarity feature of one ER problem,
  * as a fixed-width histogram over [0,1] plus exact moments.
  */
final case class FeatureHistogram(
    problemId: String,
    feature: Int,
    bins: Array[Long],
    total: Long,
    mean: Double,
    std: Double,
) {
  /** Empirical CDF evaluated at the right edge of every bin, computed once:
    * KS and WD read it on every comparison.
    */
  lazy val cdf: Array[Double] = {
    val out = new Array[Double](bins.length)
    var acc = 0.0
    var i = 0
    while (i < bins.length) { acc += bins(i); out(i) = if (total > 0) acc / total else 0.0; i += 1 }
    out
  }
  /** Bin proportions floored at `MinProp`, computed once for PSI's log-ratio. */
  lazy val props: Array[Double] =
    bins.map(c => math.max(if (total > 0) c.toDouble / total else 0.0, FeatureHistogram.MinProp))
}

/** `MinProp`: PSI's smoothing floor, so no bin proportion is 0. */
object FeatureHistogram { val MinProp = 1e-4 }

/** The univariate distribution test used to compare two ER problems'
  * per-feature similarity distributions (paper §4.2). Distances are
  * mapped into similarities in [0,1].
  */
sealed trait DistTest extends Serializable {
  def name: String
  def similarity(a: FeatureHistogram, b: FeatureHistogram): Double
}

/** Kolmogorov–Smirnov: sup |CDF_a - CDF_b| (Eq. 1); sim = 1 - KS. */
case object KS extends DistTest {
  val name = "KS"
  def similarity(a: FeatureHistogram, b: FeatureHistogram): Double = {
    val ca = a.cdf; val cb = b.cdf
    var m = 0.0; var i = 0
    while (i < ca.length) { val d = math.abs(ca(i) - cb(i)); if (d > m) m = d; i += 1 }
    1.0 - m
  }
}

/** Wasserstein distance: Σ |CDF_a[i] - CDF_b[i]| (Eq. 2), normalized by
  * the number of bins so it lands in [0,1] over the [0,1] domain;
  * sim = 1 - WD.
  */
case object WD extends DistTest {
  val name = "WD"
  def similarity(a: FeatureHistogram, b: FeatureHistogram): Double = {
    val ca = a.cdf; val cb = b.cdf
    var s = 0.0; var i = 0
    while (i < ca.length) { s += math.abs(ca(i) - cb(i)); i += 1 }
    1.0 - s / ca.length
  }
}

/** Population stability index: Σ (p_i - q_i) ln(p_i/q_i) (Eq. 3) with
  * ε-smoothed bin proportions; sim = 1/(1+PSI) (PSI is unbounded above).
  */
case object PSI extends DistTest {
  val name = "PSI"
  def similarity(a: FeatureHistogram, b: FeatureHistogram): Double = {
    val pa = a.props; val pb = b.props
    var s = 0.0; var i = 0
    while (i < pa.length) { s += (pa(i) - pb(i)) * math.log(pa(i) / pb(i)); i += 1 }
    1.0 / (1.0 + s)
  }
}

object DistTest {
  val all: Seq[DistTest] = Seq(KS, WD, PSI)
}

/** Distributed similarity-distribution analysis (paper §4.2).
  *
  * One shuffle-free pass over the pair DataFrame computes, per
  * (problem, feature), a `numBins`-bin histogram plus Σx and Σx² — i.e.
  * everything KS/WD/PSI and the std-dev feature weights need. The
  * resulting per-problem summaries are tiny (problems × features × bins)
  * and all pairwise problem comparisons run on the driver.
  */
object DistributionAnalysis {
  val DefaultBins = 100

  /** Bin counts, Σx and Σx² per feature of one set of vectors (a problem's
    * pairs or a cluster's training vectors), bin counts laid out
    * feature-major: the one summary every `FeatureHistogram` comes from,
    * so problems and clusters are binned by the same rule.
    */
  private final class Moments(numFeatures: Int, numBins: Int) extends Serializable {
    private val bins = new Array[Long](numFeatures * numBins)
    private val s1 = new Array[Double](numFeatures)
    private val s2 = new Array[Double](numFeatures)

    /** Counts `x` ∈ [0,1] of `feature` in bin min(floor(x·numBins), numBins−1). */
    def add(feature: Int, x: Double): Unit = {
      bins(feature * numBins + math.min(math.floor(x * numBins).toInt, numBins - 1)) += 1
      s1(feature) += x; s2(feature) += x * x
    }

    def +=(o: Moments): this.type = {
      var i = 0
      while (i < bins.length) { bins(i) += o.bins(i); i += 1 }
      i = 0
      while (i < s1.length) { s1(i) += o.s1(i); s2(i) += o.s2(i); i += 1 }
      this
    }

    /** One histogram per feature, its mean and std from Σx and Σx². */
    def histograms(id: String): IndexedSeq[FeatureHistogram] =
      (0 until numFeatures).map { f =>
        val fb = bins.slice(f * numBins, (f + 1) * numBins)
        val n = fb.sum
        val mean = if (n > 0) s1(f) / n else 0.0
        val varr = if (n > 0) math.max(0.0, s2(f) / n - mean * mean) else 0.0
        FeatureHistogram(id, f, fb, n, mean, math.sqrt(varr))
      }
  }

  /** Histograms of every (problemId, feature) in `pairs`: one Spark job,
    * run by `PartitionJob.run` directly on the rows of one scan, in which
    * each partition sums its pairs per problem; the driver adds the
    * partitions' sums in partition order.
    */
  def histograms(
      pairs: DataFrame,
      numFeatures: Int,
      numBins: Int = DefaultBins,
  ): Map[String, IndexedSeq[FeatureHistogram]] = {
    val parts = PartitionJob.run(pairs.select("problemId", "features").queryExecution.toRdd) { rows =>
      val byProblem = mutable.HashMap.empty[UTF8String, Moments]
      rows.foreach { r =>
        // The id points into the row's reused buffer: a new key keeps a copy.
        val pid = r.getUTF8String(0)
        val m = byProblem.getOrElse(pid, { val fresh = new Moments(numFeatures, numBins); byProblem(pid.clone()) = fresh; fresh })
        val xs = r.getArray(1)
        val n = math.min(xs.numElements(), numFeatures)
        var f = 0
        while (f < n) { m.add(f, xs.getDouble(f)); f += 1 }
      }
      byProblem.map { case (pid, m) => pid.toString -> m }.toMap
    }

    val total = mutable.HashMap.empty[String, Moments]
    parts.foreach(_.foreach { case (pid, m) =>
      total.get(pid) match {
        case Some(acc) => acc += m
        case None      => total(pid) = m
      }
    })
    total.map { case (pid, m) => pid -> m.histograms(pid) }.toMap
  }

  /** Per-problem pair counts |p_{k,l}|: each of a problem's feature
    * histograms counts every one of its pairs once.
    */
  def pairCounts(hists: Map[String, IndexedSeq[FeatureHistogram]]): Map[String, Long] =
    hists.map { case (pid, hs) => pid -> hs.head.total }

  /** Driver-side histogram of an in-memory vector set (used for the
    * per-cluster training-vector summaries P_{C^i} that `sel_base`
    * compares new problems against).
    */
  def histogramOfVectors(
      id: String,
      vecs: Seq[Array[Double]],
      numFeatures: Int,
      numBins: Int = DefaultBins,
  ): IndexedSeq[FeatureHistogram] = {
    val m = new Moments(numFeatures, numBins)
    vecs.foreach { v =>
      var f = 0
      while (f < numFeatures) { m.add(f, v(f)); f += 1 }
    }
    m.histograms(id)
  }

  /** Aggregated problem similarity sim_p: the per-feature test
    * similarities averaged with std-dev weights (a feature's standard
    * deviation is its discriminative power — near-constant features
    * contribute little).
    */
  def problemSimilarity(
      a: IndexedSeq[FeatureHistogram],
      b: IndexedSeq[FeatureHistogram],
      test: DistTest,
  ): Double = {
    require(a.length == b.length, "feature spaces must have the same size")
    var num = 0.0; var den = 0.0; var plain = 0.0
    var f = 0
    while (f < a.length) {
      val s = test.similarity(a(f), b(f))
      val w = (a(f).std + b(f).std) / 2.0
      num += w * s; den += w; plain += s
      f += 1
    }
    if (den > 1e-12) num / den else plain / a.length
  }
}
