package repro.baselines

import org.apache.spark.sql.functions.{col, udf}
import scala.util.Random
import repro.{SparkSpec, TestData}
import repro.al.{ALConfig, SparkJobs}
import repro.erdata.{ERDataset, MultiSourceGen}
import repro.eval.{Metrics, SqlConfusion}
import repro.eval.Metrics.Confusion
import repro.ml.{MLP, TextFeatures}

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

  test("recordText is the SQL serialization of both sides of every pair") {
    val ref = SqlTextPairs.of(ds, ds.pairs).select("recA", "recB", "aText", "bText").collect()
    assert(ref.length == ds.pairs.count())
    val text = ds.recordText
    ref.foreach { r =>
      assert(text(r.getLong(0)) == r.getString(2), r)
      assert(text(r.getLong(1)) == r.getString(3), r)
    }
  }

  test("AlmserStandalone produces a strong model on the tiny corpus") {
    val conf = AlmserStandalone.run(spark, ds, init, unsolved, budget = 150,
      ALConfig(kModels = 6, batchSize = 50, initSize = 20), seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.75, s"F1 ${conf.f1}")
  }

  test("TransER pseudo-labeling transfers to unsolved problems") {
    val conf = TransER.run(ds, init, unsolved, seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.6, s"F1 ${conf.f1}")
  }

  test("TransER with 50% training data still runs") {
    val conf = TransER.run(ds, init, unsolved, trainFraction = 0.5, seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.5, s"F1 ${conf.f1}")
  }

  test("DittoSim learns the matching function from text") {
    val conf = DittoSim.run(ds, init, unsolved, epochs = 5, seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.7, s"F1 ${conf.f1}")
  }

  test("DittoSim with 50% of the training data still learns") {
    val conf = DittoSim.run(ds, init, unsolved, trainFraction = 0.5, epochs = 5, seed = 1)
    assert(conf.f1 > 0.6, s"F1 ${conf.f1}")
  }

  test("AnyMatchSim learns from a sampled subset") {
    val conf = AnyMatchSim.run(ds, init, unsolved, sampleSize = 1000, epochs = 3, seed = 1)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.5, s"F1 ${conf.f1}")
  }

  test("SudowoodoSim self-supervised similarity beats the trivial all-match predictor") {
    val conf = SudowoodoSim.run(ds, init, unsolved, budget = 100, epochs = 3, seed = 1)
    assert(conf.total == totalUnsolved)
    val allMatchF1 = {
      val m = Confusion(conf.tp + conf.fn, conf.tn + conf.fp, 0, 0)
      m.f1
    }
    assert(conf.f1 > allMatchF1, s"F1 ${conf.f1} vs all-match $allMatchF1")
  }

  test("Sudowoodo bestThreshold maximizes F1 on a known sample") {
    val samples = Seq((0.9, 1), (0.8, 1), (0.7, 1), (0.3, 0), (0.2, 0), (0.6, 0))
    val (sims, labels) = (samples.map(_._1).toArray, samples.map(_._2).toArray)
    val t = Metrics.bestThreshold(SudowoodoSim.Grid, sims, labels)
    assert(t > 0.6 && t <= 0.7, s"threshold $t")
    assert(SudowoodoSim.threshold(sims, labels) == t)
  }

  test("Sudowoodo bestThreshold of empty sample falls back to 0.5") {
    // Every threshold has F1 0, so the shared search returns the grid's first.
    assert(Metrics.bestThreshold(SudowoodoSim.Grid, Array.empty, Array.empty) == SudowoodoSim.Grid.head)
    assert(SudowoodoSim.threshold(Array.empty, Array.empty) == 0.5)
  }

  test("MultiEMSim unsupervised matching produces a sane confusion") {
    val conf = MultiEMSim.run(ds, unsolved)
    assert(conf.total == totalUnsolved)
    assert(conf.f1 > 0.4, s"F1 ${conf.f1}")
  }

  test("MultiEMSim scores its test pairs in one Spark job") {
    MultiEMSim.run(ds, unsolved)
    assert(SparkJobs.count(spark) { MultiEMSim.run(ds, unsolved) } == 1)
  }

  /** The scoring path the text baselines had before `textScores`: a UDF
    * `score` column, a `pred` column and a SQL aggregate.
    */
  private def sqlConfusion(d: ERDataset, ids: Seq[String], score: (String, String) => Double, t: Double) =
    SqlConfusion.of(SqlTextPairs.of(d, d.pairsOf(ids))
      .withColumn("score", udf(score).apply(col("aText"), col("bText")))
      .withColumn("pred", (col("score") >= t).cast("int")))

  test("textScores counted on the driver equal the UDF and SQL aggregate on camera and music") {
    val cosine = (a: String, b: String) => {
      val (ia, va) = TextFeatures.hashed(TextFeatures.tokens(a), MultiEMSim.Dim)
      val (ib, vb) = TextFeatures.hashed(TextFeatures.tokens(b), MultiEMSim.Dim)
      TextFeatures.cosine(ia, va, ib, vb)
    }
    val features = (a: String, b: String) => TextFeatures.densePair(
      TextFeatures.denseHashed(TextFeatures.tokens(a), BaselineUtil.Dim),
      TextFeatures.denseHashed(TextFeatures.tokens(b), BaselineUtil.Dim))
    for (d <- Seq(ds, TestData.music)) {
      val ids = d.problemIds.sorted
      val rows = SqlTextPairs.of(d, d.pairsOf(ids.take(2))).limit(200).collect()
      val mlp = MLP.fitClassifier(
        rows.map(r => features(r.getAs[String]("aText"), r.getAs[String]("bText"))).toIndexedSeq,
        rows.map(_.getAs[Int]("label")).toIndexedSeq, hidden = 8, epochs = 2, lr = 0.1, seed = 1)
      val prob = (a: String, b: String) => mlp.predictProb(features(a, b))
      val idSets = Seq("all ids" -> ids, "odd ids" -> ids.zipWithIndex.collect { case (p, i) if i % 2 == 1 => p },
        "no ids" -> Nil)
      for ((scoreName, score) <- Seq("cosine" -> cosine, "MLP" -> prob); (idsName, ids) <- idSets) {
        val (scores, labels) = BaselineUtil.textScores(d, ids, score)
        assert(scores.length == d.pairsOf(ids).count())
        for (t <- Seq(0.0, 0.3, 0.5, 0.75, 1.0))
          assert(Confusion.at(scores, labels, t) == sqlConfusion(d, ids, score, t), s"${d.name}, $scoreName, $idsName, $t")
      }
    }
  }

  /** `f` of the camera and the music corpus, each rebuilt and cached at
    * every shuffle partition count of `counts`, with its initial and
    * unsolved problems: this suite's split on camera, train and test on
    * music. The results come per count, camera's then music's.
    */
  private def atPartitions[T](counts: Seq[Int])(f: (ERDataset, Seq[String], Seq[String]) => T): Seq[Seq[T]] = {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    try counts.map { n =>
      spark.conf.set(key, n.toLong)
      Seq(TestData.tinyCameraConfig(), TestData.tinyMusicConfig()).map { cfg =>
        val corpus = MultiSourceGen.generate(spark, cfg)
        corpus.pairs.cache()
        val split =
          if (cfg.splitHalves) corpus.problems.partition(_.split == "train") match { case (a, b) => (a.map(_.id), b.map(_.id)) }
          else (init, unsolved)
        try f(corpus, split._1, split._2) finally corpus.pairs.unpersist()
      }
    } finally spark.conf.set(key, saved)
  }

  test("TransER and Sudowoodo do not depend on the shuffle partition count") {
    val Seq(at64, at7) = atPartitions(Seq(64, 7)) { (d, train, test) =>
      Seq(TransER.run(d, train, test, seed = 1), TransER.run(d, train, test, trainFraction = 0.5, seed = 1),
        SudowoodoSim.run(d, train, test, budget = 100, epochs = 3, seed = 1))
    }
    assert(at64 == at7)
  }

  test("the text classifier's draw keeps the same pairs at any shuffle partition count") {
    val draws = Seq((0.5, DittoSim.TrainCap), (1.0, 300))
    val Seq(at64, at7) = atPartitions(Seq(64, 7)) { (d, train, _) =>
      val pool = d.poolOf(train)
      (pool.size, draws.map { case (fraction, cap) => BaselineUtil.draw(pool, fraction, cap, 1).map(v => (v.recA, v.recB)).toSet })
    }
    assert(at64 == at7)
    // A capped draw keeps about cap pairs, and a fraction about that share.
    for ((n, Seq(half, capped)) <- at64) {
      assert(n > 600 && capped.size > 200 && capped.size < 400, s"${capped.size} of $n")
      assert(math.abs(half.size - n / 2) < n / 10, s"${half.size} of $n")
    }
  }

  test("supervised text baselines outperform the unsupervised MultiEM on heterogeneous data") {
    val ditto = DittoSim.run(ds, init, unsolved, epochs = 5, seed = 2)
    val multi = MultiEMSim.run(ds, unsolved)
    assert(ditto.f1 >= multi.f1 - 0.02, s"ditto ${ditto.f1} vs multiEM ${multi.f1}")
  }
}
