package repro.erdata

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import scala.util.Random

class MultiSourceGenSpec extends SparkSpec {

  test("the pair table keeps no raw attributes") {
    for (ds <- Seq(TestData.camera, TestData.music))
      assert(ds.pairs.columns.toSeq == Seq("problemId", "srcA", "srcB", "split", "recA", "recB", "entA", "entB",
        "label", "features"), ds.name)
  }

  test("problemsOf counts match the paper topologies") {
    assert(MultiSourceGen.problemsOf(MultiSourceGen.dexterConfig(0.1)).size == 276)
    assert(MultiSourceGen.problemsOf(MultiSourceGen.wdcConfig(0.1)).size == 12)
    assert(MultiSourceGen.problemsOf(MultiSourceGen.musicConfig(0.1)).size == 20)
  }

  test("problem ids are unique") {
    val ps = MultiSourceGen.problemsOf(MultiSourceGen.dexterConfig(0.1))
    assert(ps.map(_.id).distinct.size == ps.size)
  }

  test("baseEntity is deterministic in (domain, entity, seed)") {
    val a = MultiSourceGen.baseEntity(CameraDomain, 42, 7)
    val b = MultiSourceGen.baseEntity(CameraDomain, 42, 7)
    assert(a == b)
    assert(MultiSourceGen.baseEntity(CameraDomain, 43, 7) != a)
    assert(MultiSourceGen.baseEntity(CameraDomain, 42, 8) != a)
  }

  test("camera base titles start with brand and model") {
    val r = MultiSourceGen.baseEntity(CameraDomain, 1, 7)
    assert(r.a1.startsWith(s"${r.a2} ${r.a3}"))
    assert(r.num1 > 0)
  }

  test("music base entities carry length and year offsets in range") {
    (0 until 50).foreach { e =>
      val r = MultiSourceGen.baseEntity(MusicDomain, e, 7)
      assert(r.num1 >= 120 && r.num1 <= 480)
      assert(r.num2 >= 0 && r.num2 < 70)
    }
  }

  test("corruptString with zero rates is identity") {
    val clean = CorruptionProfile(0, 0, 0, 0, 0)
    val rng = new Random(1)
    assert(MultiSourceGen.corruptString("canon eos 5d mark", clean, rng, dropTokens = true) ==
      "canon eos 5d mark")
  }

  test("corruptString with missingRate 1 blanks the value") {
    val p = CorruptionProfile(0, 0, 1.0, 0, 0)
    assert(MultiSourceGen.corruptString("canon", p, new Random(1), dropTokens = false) == "")
  }

  test("corruptString typos change characters at roughly the configured rate") {
    val p = CorruptionProfile(0.2, 0, 0, 0, 0)
    val rng = new Random(2)
    val s = "a" * 1000
    val out = MultiSourceGen.corruptString(s, p, rng, dropTokens = false)
    val changed = out.count(_ != 'a')
    assert(changed > 120 && changed < 280, s"changed=$changed")
  }

  test("corruptString token dropping keeps at least the first two tokens") {
    val p = CorruptionProfile(0, 1.0, 0, 0, 0)
    val out = MultiSourceGen.corruptString("canon 5d ultra zoom kit", p, new Random(3), dropTokens = true)
    assert(out == "canon 5d")
  }

  test("corruptNum preserves missing marker and stays non-negative") {
    val p = CorruptionProfile(0, 0, 0, 0.5, 0)
    assert(MultiSourceGen.corruptNum(0.0, p, new Random(1)) == 0.0)
    (1 to 50).foreach { i =>
      assert(MultiSourceGen.corruptNum(100.0, p, new Random(i)) >= 0.0)
    }
  }

  test("recordsOf is deterministic and unique record ids") {
    val cfg = TestData.tinyCameraConfig()
    val a = MultiSourceGen.recordsOf(cfg, 3)
    assert(a == MultiSourceGen.recordsOf(cfg, 3))
    val all = (0L until 50L).flatMap(MultiSourceGen.recordsOf(cfg, _))
    assert(all.map(_.recId).distinct.size == all.size)
  }

  test("records of one entity share the entityId and split") {
    val cfg = TestData.tinyMusicConfig()
    (0L until 20L).foreach { e =>
      val rs = MultiSourceGen.recordsOf(cfg, e)
      assert(rs.map(_.entityId).distinct.size <= 1)
      assert(rs.map(_.split).distinct.size <= 1)
    }
  }

  test("split halves are roughly balanced") {
    val cfg = TestData.tinyMusicConfig()
    val splits = (0L until 400L).map(e =>
      if ((((e * 2654435761L + cfg.seed) & 0x7FFFFFFF) % 2) == 0) "train" else "test")
    val train = splits.count(_ == "train")
    assert(train > 120 && train < 280, s"train=$train")
  }

  test("dup groups appear only when dupRate > 0") {
    val noDup = TestData.tinyCameraConfig().copy(dupRate = 0.0)
    val recs = (0L until 100L).flatMap(MultiSourceGen.recordsOf(noDup, _))
    val perSourceEnt = recs.groupBy(r => (r.source, r.entityId)).values.map(_.size)
    assert(perSourceEnt.forall(_ == 1))
  }

  test("generated dataset matches the declared problem list") {
    val ds = TestData.camera
    val pids = ds.pairs.select("problemId").distinct().collect().map(_.getString(0)).toSet
    assert(pids.subsetOf(ds.problemIds.toSet))
    assert(pids.size >= ds.problems.size - 2) // a tiny corpus may miss a sparse problem
  }

  test("pairs have srcA <= srcB and recA < recB within a source") {
    val ds = TestData.camera
    assert(ds.pairs.filter(col("srcA") > col("srcB")).count() == 0)
    assert(ds.pairs.filter(col("srcA") === col("srcB") && col("recA") >= col("recB")).count() == 0)
  }

  test("labels agree with entity identity") {
    val ds = TestData.camera
    assert(ds.pairs.filter(col("label") === 1 && col("entA") =!= col("entB")).count() == 0)
    assert(ds.pairs.filter(col("label") === 0 && col("entA") === col("entB")).count() == 0)
  }

  test("no duplicate pairs per problem") {
    Seq(TestData.camera, TestData.music).foreach { ds =>
      val dup = ds.pairs.groupBy("problemId", "recA", "recB").count().filter(col("count") > 1).count()
      assert(dup == 0, ds.name)
    }
  }

  test("heterogeneous profiles produce different per-problem match-feature means") {
    val ds = TestData.camera
    // clean-clean problems should have higher mean match title similarity
    // than noisy-noisy ones (profile 0 = clean on even sources)
    val means = ds.pairs.filter(col("label") === 1)
      .groupBy("srcA", "srcB").agg(avg(col("features").getItem(0)) as "m")
      .collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    val cleanClean = means.get((0, 2)) // profiles 0,0
    val noisyNoisy = means.get((1, 3)) // profiles 1,1
    for { c <- cleanClean; n <- noisyNoisy } assert(c > n, s"clean $c !> noisy $n")
  }

  test("music generation yields the music feature space (5 features)") {
    val ds = TestData.music
    assert(ds.numFeatures == 5)
    val first = ds.pairs.select("features").limit(1).collect()(0).getSeq[Double](0)
    assert(first.size == 5)
  }

  test("generation is deterministic across invocations") {
    val cfg = TestData.tinyCameraConfig()
    val a = MultiSourceGen.records(spark, cfg).orderBy("recId").collect()
    val b = MultiSourceGen.records(spark, cfg).orderBy("recId").collect()
    assert(a.toSeq == b.toSeq)
  }
}
