package repro.ml

import scala.util.Random

/** Bagged CART forest — the per-cluster classification model of the
  * repository (the paper uses scikit-learn classifiers; random forests
  * are the standard choice in the Almser/MoRER line of work).
  *
  * The fitted forest is a plain serializable case class so it can be
  * broadcast to the Spark tasks that score record pairs
  * (`ModelRepository.confusion`).
  */
final case class RandomForest(trees: IndexedSeq[TreeNode]) extends Serializable {
  /** Mean positive-class probability across trees. */
  def predictProb(x: Array[Double]): Double =
    trees.map(_.predictProb(x)).sum / trees.size

  /** Hard 0/1 prediction at threshold 0.5. */
  def predict(x: Array[Double]): Int = if (predictProb(x) >= 0.5) 1 else 0

  /** Fraction of trees voting "match" — the committee vote used by the
    * Bootstrap AL uncertainty (Eq. 10 treats each tree as one model m_i).
    */
  def voteFraction(x: Array[Double]): Double =
    trees.count(_.predictProb(x) >= 0.5).toDouble / trees.size
}

object RandomForest {
  def fit(
      data: IndexedSeq[LabeledVector],
      numTrees: Int = 10,
      maxDepth: Int = 8,
      seed: Long = 0L,
  ): RandomForest = {
    require(data.nonEmpty, "cannot fit a forest on no data")
    val nFeat = data.head.features.length
    val mtry  = math.max(1, math.round(math.sqrt(nFeat.toDouble)).toInt)
    val trees = (0 until numTrees).map { i =>
      val rng  = new Random(seed * 7919 + i)
      val boot = IndexedSeq.fill(data.size)(data(rng.nextInt(data.size)))
      DecisionTree.fit(boot, maxDepth, featuresPerSplit = Some(mtry), seed = rng.nextLong())
    }
    RandomForest(trees)
  }
}
