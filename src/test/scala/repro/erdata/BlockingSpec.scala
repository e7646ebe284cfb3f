package repro.erdata

import scala.util.hashing.MurmurHash3
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.core.FeatureVectors

class BlockingSpec extends SparkSpec {

  /** Blocking as it was when it ended in a `dropDuplicates` (the layout
    * reference): the same join, deduplicated by a sort-based aggregate.
    */
  private def dedupedPairs(records: DataFrame, cfg: GenConfig): DataFrame = {
    val a = records.filter(col("block") =!= "").alias("a")
    val b = records.filter(col("block") =!= "").alias("b")
    val crossSource = col("a.source") < col("b.source")
    val withinSource = col("a.source") === col("b.source") && col("a.recId") < col("b.recId")
    val joined = a.join(b, col("a.block") === col("b.block") && col("a.split") === col("b.split") &&
      (if (cfg.selfProblems) crossSource || withinSource else crossSource))
    val pid =
      if (cfg.splitHalves) concat(lit("p"), col("a.source"), lit("_"), col("b.source"), lit("_"), col("a.split"))
      else concat(lit("p"), col("a.source"), lit("_"), col("b.source"))
    joined.select(
      pid as "problemId", col("a.source") as "srcA", col("b.source") as "srcB", col("a.split") as "split",
      col("a.recId") as "recA", col("b.recId") as "recB", col("a.entityId") as "entA", col("b.entityId") as "entB",
      (col("a.entityId") === col("b.entityId")).cast("int") as "label",
      col("a.a1") as "a_a1", col("a.a2") as "a_a2", col("a.a3") as "a_a3",
      col("a.num1") as "a_num1", col("a.num2") as "a_num2",
      col("b.a1") as "b_a1", col("b.a2") as "b_a2", col("b.a3") as "b_a3",
      col("b.num1") as "b_num1", col("b.num2") as "b_num2",
    ).dropDuplicates("problemId", "recA", "recB")
  }

  /** Per partition of `pairs`, the ordered hash of its (problemId, recA,
    * recB, features) rows.
    */
  private def layout(pairs: DataFrame): Seq[Int] =
    pairs.select("problemId", "recA", "recB", "features").rdd.mapPartitions { rows =>
      Iterator.single(MurmurHash3.orderedHash(rows.map(r =>
        (r.getString(0), r.getLong(1), r.getLong(2), r.getSeq[Double](3).toList))))
    }.collect().toSeq

  test("the cached pair table keeps the layout and features of the deduplicated table it replaced") {
    import FeatureVectors._
    Seq(TestData.tinyCameraConfig() -> TestData.camera, TestData.tinyMusicConfig() -> TestData.music)
      .foreach { case (cfg, ds) =>
        // Each feature as one expression, tokenizing a Jaccard side per use.
        val features = ds.specs.map {
          case JaccardTokens(c, _)  => jaccard(tokens(col(s"a_$c")), tokens(col(s"b_$c")))
          case LevenshteinSim(c, _) => levSim(col(s"a_$c"), col(s"b_$c"))
          case NumericSim(c, _)     => numSim(col(s"a_$c"), col(s"b_$c"))
        }
        val reference = dedupedPairs(ds.records, cfg).withColumn("features", array(features: _*)).cache()
        try assert(layout(reference) == layout(ds.pairs), cfg.name)
        finally reference.unpersist()
      }
  }

  test("the pair table's physical plan has no aggregate") {
    val pairs = MultiSourceGen.generate(spark, TestData.tinyCameraConfig(seed = 11)).pairs
    val plan = pairs.queryExecution.sparkPlan
    assert(plan.collect { case a: BaseAggregateExec => a }.isEmpty, plan)
  }

  test("candidate pairs agree on the blocking key (oracle join-count check)") {
    val cfg = TestData.tinyCameraConfig()
    val recs = MultiSourceGen.records(spark, cfg)
    val pairs = Blocking.candidatePairs(recs, cfg)

    // cross-source pair count per problem must equal DuckDB's key-join count
    val sparkCounts = pairs.filter(col("srcA") =!= col("srcB"))
      .groupBy("problemId").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      sparkCounts,
      """SELECT 'p' || a.source || '_' || b.source AS problemId, count(*) AS cnt
        |FROM recs a JOIN recs b
        |  ON a.block = b.block AND a.split = b.split
        | AND CAST(a.source AS INT) < CAST(b.source AS INT)
        |WHERE a.block <> '' AND b.block <> ''
        |GROUP BY 1""".stripMargin,
      "recs" -> recs)
  }

  test("within-source pairs appear only with selfProblems enabled") {
    val cfg = TestData.tinyCameraConfig()
    val recs = MultiSourceGen.records(spark, cfg)
    val withSelf = Blocking.candidatePairs(recs, cfg)
    val noSelf = Blocking.candidatePairs(recs, cfg.copy(selfProblems = false))
    assert(withSelf.filter(col("srcA") === col("srcB")).count() > 0)
    assert(noSelf.filter(col("srcA") === col("srcB")).count() == 0)
  }

  test("records with empty block keys generate no pairs") {
    val cfg = TestData.tinyCameraConfig()
    val recs = MultiSourceGen.records(spark, cfg)
      .withColumn("block", when(col("recId") % 2 === 0, lit("")).otherwise(col("block")))
    val pairs = Blocking.candidatePairs(recs, cfg)
    assert(pairs.filter(col("recA") % 2 === 0 || col("recB") % 2 === 0).count() == 0)
  }

  test("split equality is enforced for split corpora") {
    val cfg = TestData.tinyMusicConfig()
    val recs = MultiSourceGen.records(spark, cfg)
    val pairs = Blocking.candidatePairs(recs, cfg)
    val splits = recs.select("recId", "split").collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val bad = pairs.select("recA", "recB").collect().count { r =>
      splits(r.getLong(0)) != splits(r.getLong(1))
    }
    assert(bad == 0)
  }

  test("problemId encodes the source pair (and split when present)") {
    val camera = TestData.camera
    val r = camera.pairs.select("problemId", "srcA", "srcB").distinct().collect()
    r.foreach(row => assert(row.getString(0) == s"p${row.getInt(1)}_${row.getInt(2)}"))
    val music = TestData.music
    val m = music.pairs.select("problemId", "srcA", "srcB", "split").distinct().collect()
    m.foreach(row => assert(row.getString(0) == s"p${row.getInt(1)}_${row.getInt(2)}_${row.getString(3)}"))
  }

  test("blocking recall: most co-present matches survive blocking") {
    val cfg = TestData.tinyCameraConfig()
    val recs = MultiSourceGen.records(spark, cfg).cache()
    val pairs = Blocking.candidatePairs(recs, cfg)
    // upper bound of matches: co-present entity record pairs across sources
    val a = recs.select(col("source") as "sa", col("entityId") as "ea", col("recId") as "ra")
    val b = recs.select(col("source") as "sb", col("entityId") as "eb", col("recId") as "rb")
    val possible = a.join(b, col("ea") === col("eb") &&
      (col("sa") < col("sb") || (col("sa") === col("sb") && col("ra") < col("rb")))).count()
    val found = pairs.filter(col("label") === 1).count()
    recs.unpersist()
    // the tiny config's noisy profile corrupts brand/model keys on ~half
    // its records, so recall well below 1 is expected — but blocking must
    // still retain the clear majority of cross-source duplicates
    assert(found > possible * 4 / 10, s"blocking recall ${found.toDouble / possible}")
  }

  test("match ratio of the tiny camera corpus is in a sane band") {
    val ds = TestData.camera
    val n = ds.pairs.count().toDouble
    val m = ds.pairs.filter(col("label") === 1).count()
    val ratio = m / n
    assert(ratio > 0.05 && ratio < 0.7, s"match ratio $ratio")
  }
}
