package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.al.{ALConfig, ActiveLearner, AlmserAL}
import repro.core.ModelRepository
import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.ml.{LabeledVector, RandomForest}

/** Almser as a standalone baseline: the graph-boosted AL runs over the
  * *entire* pool of solved-task vectors (no MoRER clustering to shrink
  * the candidate space — the paper attributes Almser's long runtimes to
  * exactly this growing similarity graph), trains a single model on the
  * selected pairs, and classifies all unsolved problems with it.
  */
object AlmserStandalone {

  def run(
      spark: SparkSession,
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      budget: Int,
      alCfg: ALConfig = ALConfig(),
      seed: Long = 7,
  ): Confusion = {
    // One job collects the pool; AlmserAL.select reads it from the driver.
    val pool = ActiveLearner.poolFrame(spark, ds.poolOf(trainIds))
    val selected = AlmserAL.select(spark, pool, budget, alCfg, Map.empty, seed)
    val train = selected.map(v => LabeledVector(v.features, v.oracleLabel))
    val model = RandomForest.fit(train, numTrees = 10, maxDepth = 8, seed = seed)
    ModelRepository.confusion(ds, testIds, testIds.map(_ -> model).toMap)
  }
}
