package repro.ml

import scala.util.Random

/** A fitted CART node. Serializable so whole trees/forests can be
  * shipped to executors and evaluated inside Spark tasks.
  */
sealed trait TreeNode extends Serializable {
  /** Probability of the positive class for this feature vector. */
  def predictProb(x: Array[Double]): Double = this match {
    case Leaf(p)                      => p
    case Split(f, t, left, right)     =>
      if (x(f) <= t) left.predictProb(x) else right.predictProb(x)
  }
}
final case class Leaf(prob: Double) extends TreeNode
final case class Split(feature: Int, threshold: Double, left: TreeNode, right: TreeNode)
    extends TreeNode

/** CART binary classification tree with Gini impurity.
  *
  * Deterministic in (data order, seed). Thresholds are candidate
  * midpoints between distinct sorted feature values, subsampled to at
  * most [[DecisionTree.MaxThresholds]] per feature for speed — training
  * sets here are AL-selected (≤ a few thousand rows), so exact split
  * enumeration is unnecessary.
  */
object DecisionTree {
  val MaxThresholds = 32

  def fit(
      data: IndexedSeq[LabeledVector],
      maxDepth: Int = 8,
      minLeaf: Int = 2,
      featuresPerSplit: Option[Int] = None,
      seed: Long = 0L,
  ): TreeNode = {
    require(data.nonEmpty, "cannot fit a tree on no data")
    val rng = new Random(seed)
    val nFeat = data.head.features.length
    grow(data, maxDepth, minLeaf, featuresPerSplit.getOrElse(nFeat), nFeat, rng)
  }

  private def posFrac(d: IndexedSeq[LabeledVector]): Double =
    d.count(_.label == 1).toDouble / d.size

  private def gini(d: IndexedSeq[LabeledVector]): Double = {
    val p = posFrac(d); 2.0 * p * (1.0 - p)
  }

  private def grow(
      d: IndexedSeq[LabeledVector],
      depthLeft: Int,
      minLeaf: Int,
      mtry: Int,
      nFeat: Int,
      rng: Random,
  ): TreeNode = {
    val p = posFrac(d)
    if (depthLeft <= 0 || d.size < 2 * minLeaf || p == 0.0 || p == 1.0) return Leaf(p)

    val feats = rng.shuffle((0 until nFeat).toList).take(math.max(1, mtry))
    var best: Option[(Int, Double, Double)] = None // feature, threshold, impurity
    val parentGini = gini(d)
    for (f <- feats) {
      val vals = d.map(_.features(f)).distinct.sorted
      if (vals.length > 1) {
        val mids = vals.sliding(2).map(w => (w(0) + w(1)) / 2.0).toIndexedSeq
        val cands =
          if (mids.length <= MaxThresholds) mids
          else {
            val step = mids.length.toDouble / MaxThresholds
            (0 until MaxThresholds).map(i => mids((i * step).toInt))
          }
        for (t <- cands) {
          val (l, r) = d.partition(_.features(f) <= t)
          if (l.size >= minLeaf && r.size >= minLeaf) {
            val imp = (l.size * gini(l) + r.size * gini(r)) / d.size
            // non-strict: zero-gain splits are allowed so XOR-like
            // interactions can be resolved one level deeper
            if (imp <= parentGini + 1e-12 && best.forall(_._3 > imp))
              best = Some((f, t, imp))
          }
        }
      }
    }
    best match {
      case None => Leaf(p)
      case Some((f, t, _)) =>
        val (l, r) = d.partition(_.features(f) <= t)
        Split(f, t,
          grow(l, depthLeft - 1, minLeaf, mtry, nFeat, rng),
          grow(r, depthLeft - 1, minLeaf, mtry, nFeat, rng))
    }
  }
}
