package repro.erdata

import org.apache.spark.{SparkEnv, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.functions.col
import repro.{SparkSpec, TestData}
import repro.baselines.SqlPairs
import repro.core.ModelRepository
import repro.eval.Metrics.Confusion
import repro.ml.{Leaf, RandomForest}

class ERDatasetSpec extends SparkSpec {

  private type Pair = (String, Long, Long, Array[Double], Int)

  /** A dataset whose `pairs` are `parts`, one partition each, in order. */
  private def handMade(parts: Seq[Pair]*): ERDataset = {
    import spark.implicits._
    val pairs = spark.sparkContext.parallelize(parts, parts.size).flatMap(identity)
      .toDF("problemId", "recA", "recB", "features", "label")
    assert(pairs.rdd.glom().collect().map(_.length).toSeq == parts.map(_.size))
    ERDataset("handmade", spark.emptyDataFrame, pairs,
      Seq(JaccardTokens("a1", "title"), NumericSim("num1", "price")), Nil)
  }

  private def pair(pid: String, i: Int): Pair = (pid, i.toLong, i + 100L, Array(i / 10.0, 1 - i / 10.0), i % 2)
  private def rows(vs: Seq[repro.ml.PoolVector]) = vs.map(v => (v.problemId, v.recA, v.recB, v.features.toSeq, v.oracleLabel))

  /** The size of the task binary a job over `rdd` ships. */
  private def taskBinaryBytes[T](rdd: RDD[T]): Int = {
    val f = (_: TaskContext, it: Iterator[T]) => it.size
    SparkEnv.get.closureSerializer.newInstance().serialize((rdd, f): AnyRef).limit()
  }

  test("after the first pass the blocks are checkpointed and a job over them ships under 8 KiB") {
    val ds = TestData.camera
    ds.poolOf(ds.problemIds.take(1))
    assert(ds.pairRows.isCheckpointed)
    assert(taskBinaryBytes(ds.pairRows) < 8192)
    // The scan the blocks are cut from ships its whole plan.
    assert(taskBinaryBytes(ds.pairs.select("problemId", "recA", "recB", "features", "label").queryExecution.toRdd) > 8192)
  }

  test("the SQL pairRank equals the Scala pairRank on every camera pair") {
    val ds = TestData.camera
    for (seed <- Seq(1L, 7L)) {
      val rows = ds.pairs.select(col("recA"), col("recB"), SqlPairs.pairRank(seed)).collect()
      assert(rows.length == ds.pairs.count())
      val mismatches = rows.filterNot(r => r.getDouble(2) == ERDataset.pairRank(r.getLong(0), r.getLong(1), seed))
      assert(mismatches.isEmpty, mismatches.take(5).mkString(", "))
    }
  }

  test("passes keep working after the pair table is unpersisted") {
    val ds = handMade((0 until 6).map(i => pair(s"p${i % 2}", i)), (6 until 9).map(pair("p2", _)))
    ds.pairs.cache()
    val always = Map("p0" -> RandomForest(IndexedSeq(Leaf(1.0))))
    val pool = ds.poolOf(Seq("p0", "p2"))
    val conf = ModelRepository.confusion(ds, Seq("p0", "p2"), always)
    ds.pairs.unpersist(blocking = true)
    assert(rows(ds.poolOf(Seq("p0", "p2"))) == rows(pool))
    assert(ModelRepository.confusion(ds, Seq("p0", "p2"), always) == conf)
  }

  test("problems whose pairs interleave within and across partitions are read like a row-by-row filter") {
    val ids = Seq("a", "b", "a", "c", "a", "b")
    val parts = Seq(ids.zipWithIndex.map { case (p, i) => pair(p, i) }, Nil, Seq(pair("c", 6), pair("a", 7)))
    val ds = handMade(parts: _*)
    val all = parts.flatten
    for (wanted <- Seq(Seq("a"), Seq("a", "c"), Seq("a", "b", "c"), Seq("d"), Nil)) {
      val want = all.filter(p => wanted.contains(p._1)).map(p => (p._1, p._2, p._3, p._4.toSeq, p._5))
      assert(rows(ds.poolOf(wanted)) == want, wanted)
      // "a" predicts match, every other problem non-match.
      val models = Map("a" -> RandomForest(IndexedSeq(Leaf(1.0))))
      val counted = want.foldLeft(Confusion.empty) { case (c, (pid, _, _, _, label)) =>
        c + (if (pid == "a") Confusion(label, 1 - label, 0, 0) else Confusion(0, 0, label, 1 - label))
      }
      assert(ModelRepository.confusion(ds, wanted, models) == counted, wanted)
    }
  }
}
