package repro.al

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ml.{LabeledVector, PoolVector, RandomForest}

/** The uncertainty AL method of Mozafari et al. (paper §4.4,
  * "Bootstrap"): per iteration, k classifiers are bagged from the
  * current training data; a pool vector's uncertainty is
  * unc(w) = p(1-p) with p the fraction of committee matches (Eq. 10),
  * extended by the IDF-style record-uniqueness score s(w) (Eqs. 11–12).
  *
  * The committee is exactly a k-tree random forest (bagging with
  * replacement). The pool is collected to the driver once by
  * `ActiveLearner.selectByScore`; each iteration scores it in-process,
  * in parallel over the vectors.
  */
object BootstrapAL extends ActiveLearner {
  val name = "Bootstrap"

  def select(
      spark: SparkSession,
      pool: DataFrame,
      budget: Int,
      cfg: ALConfig,
      idf: Map[Long, Double],
      seed: Long,
  ): IndexedSeq[PoolVector] = ActiveLearner.selectByScore(pool, budget, cfg) { (vectors, labeled, iter) =>
    val train = labeled.map(v => LabeledVector(v.features, v.oracleLabel))
    val forest = RandomForest.fit(train, numTrees = cfg.kModels, maxDepth = 6,
      seed = seed * 31 + iter)
    ActiveLearner.scoreEach(vectors.size) { i =>
      val v   = vectors(i)
      val f   = forest.voteFraction(v.features)
      val unc = f * (1.0 - f)
      val s   = ActiveLearner.pairScore(idf, v.recA, v.recB)
      // deterministic micro-jitter breaks ties without an RNG
      val jit = ((v.recA * 2654435761L + v.recB) & 0xFFFF).toDouble / 0xFFFF.toDouble * 1e-6
      unc * (1.0 + s) + jit
    }
  }
}
