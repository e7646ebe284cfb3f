package repro.baselines

import scala.util.Random
import repro.{SparkSpec, TestData}
import repro.al.ALConfig

/** Small end-to-end runs of every baseline on the tiny corpus: each must
  * produce a sane confusion and beat trivial predictors where its method
  * class is expected to.
  */
class BaselinesSpec extends SparkSpec {

  private lazy val ds = TestData.camera
  private lazy val (init, unsolved) = {
    val ids = new Random(3).shuffle(ds.problemIds.sorted.toVector)
    ids.splitAt(ids.size / 2)
  }
  private lazy val totalUnsolved = ds.pairsOf(unsolved).count()

  test("textPairs serializes both sides with the label") {
    val tp = BaselineUtil.textPairs(ds.pairs).limit(5).collect()
    tp.foreach { r =>
      assert(r.getAs[String]("aText").nonEmpty || r.getAs[String]("bText").nonEmpty)
      val l = r.getAs[Int]("label"); assert(l == 0 || l == 1)
    }
  }

  test("AlmserStandalone produces a strong model on the tiny corpus") {
    val conf = AlmserStandalone.run(spark, ds, init, unsolved, budget = 150,
      ALConfig(kModels = 6, batchSize = 50, initSize = 20), seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.75, s"F1 ${conf.f1}")
  }

  test("TransER pseudo-labeling transfers to unsolved problems") {
    val conf = TransER.run(spark, ds, init, unsolved, seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.6, s"F1 ${conf.f1}")
  }

  test("TransER with 50% training data still runs") {
    val conf = TransER.run(spark, ds, init, unsolved, trainFraction = 0.5, seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.5, s"F1 ${conf.f1}")
  }

  test("DittoSim learns the matching function from text") {
    val conf = DittoSim.run(spark, ds, init, unsolved, epochs = 5, seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.7, s"F1 ${conf.f1}")
  }

  test("DittoSim with 50% of the training data still learns") {
    val conf = DittoSim.run(spark, ds, init, unsolved, trainFraction = 0.5, epochs = 5, seed = 1)
    assert(conf.f1 > 0.6, s"F1 ${conf.f1}")
  }

  test("AnyMatchSim learns from a sampled subset") {
    val conf = AnyMatchSim.run(spark, ds, init, unsolved, sampleSize = 1000, epochs = 3, seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.5, s"F1 ${conf.f1}")
  }

  test("SudowoodoSim self-supervised similarity beats the trivial all-match predictor") {
    val conf = SudowoodoSim.run(spark, ds, init, unsolved, budget = 100, epochs = 3, seed = 1)
    assert(conf.total == totalUnsolved)
    val allMatchF1 = {
      val m = repro.eval.Metrics.Confusion(conf.tp + conf.fn, conf.tn + conf.fp, 0, 0)
      m.f1
    }
    assert(conf.f1 > allMatchF1, s"F1 ${conf.f1} vs all-match $allMatchF1")
  }

  test("Sudowoodo bestThreshold maximizes F1 on a known sample") {
    val samples = Seq((0.9, 1), (0.8, 1), (0.7, 1), (0.3, 0), (0.2, 0), (0.6, 0))
    val t = SudowoodoSim.bestThreshold(samples)
    assert(t > 0.6 && t <= 0.7, s"threshold $t")
  }

  test("Sudowoodo bestThreshold of empty sample falls back to 0.5") {
    assert(SudowoodoSim.bestThreshold(Nil) == 0.5)
  }

  test("MultiEMSim unsupervised matching produces a sane confusion") {
    val conf = MultiEMSim.run(ds, unsolved)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.4, s"F1 ${conf.f1}")
  }

  test("supervised text baselines outperform the unsupervised MultiEM on heterogeneous data") {
    val ditto = DittoSim.run(spark, ds, init, unsolved, epochs = 5, seed = 2)
    val multi = MultiEMSim.run(ds, unsolved)
    assert(ditto.f1 >= multi.f1 - 0.02, s"ditto ${ditto.f1} vs multiEM ${multi.f1}")
  }
}
