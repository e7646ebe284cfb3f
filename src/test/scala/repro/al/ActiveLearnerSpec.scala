package repro.al

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.erdata.ERDataset

class ActiveLearnerSpec extends SparkSpec {

  private def pool(ds: ERDataset) = ds.pairs.select("problemId", "recA", "recB", "features", "label")

  private def vectors(ds: ERDataset) = pool(ds).collect().toIndexedSeq.map(ActiveLearner.toPoolVector)

  /** The warm start as Spark sorts computed it before it moved to the driver. */
  private def sparkWarmStart(pool: DataFrame, n: Int) = {
    val withMean = pool.withColumn("fmean", aggregate(col("features"), lit(0.0), (a, x) => a + x))
    val third = math.max(1, n / 3)
    val hi = withMean.orderBy(desc("fmean"), col("recA"), col("recB")).limit(n - 2 * third)
    val lo = withMean.orderBy(asc("fmean"), col("recA"), col("recB")).limit(third)
    val rnd = withMean.orderBy(abs(hash(col("recA"), col("recB"))), col("recA")).limit(third)
    (hi.collect() ++ lo.collect() ++ rnd.collect()).toIndexedSeq
      .map(ActiveLearner.toPoolVector)
      .map(v => (v.problemId, v.recA, v.recB))
      .distinct
  }

  test("driver warm-start hash order equals Spark's abs(hash(recA, recB)) order") {
    for (ds <- Seq(TestData.camera, TestData.music)) {
      val bySpark = ds.pairs.orderBy(abs(hash(col("recA"), col("recB"))), col("recA"))
        .select("recA", "recB").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
      val byDriver = vectors(ds).map(v => (v.recA, v.recB))
        .sortBy { case (a, b) => (math.abs(ActiveLearner.sparkHash(a, b)), a, b) }
      assert(byDriver == bySpark, ds.name)
    }
  }

  test("driver warm start equals the Spark-sorted warm start on camera and music") {
    for (ds <- Seq(TestData.camera, TestData.music); n <- Seq(20, 50, 200)) {
      val driver = ActiveLearner.warmStart(vectors(ds), n).map(v => (v.problemId, v.recA, v.recB))
      assert(driver == sparkWarmStart(pool(ds), n), s"${ds.name} n=$n")
    }
  }
}
