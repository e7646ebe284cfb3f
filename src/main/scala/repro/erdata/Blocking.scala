package repro.erdata

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Standard blocking: candidate record pairs are records agreeing on the
  * (corruption-derived) blocking key, generated with a single self-join
  * over all sources at once — one shuffle produces the pair sets of
  * every ER problem of the corpus simultaneously.
  */
object Blocking {

  /** Blocked candidate pairs with ground-truth labels.
    *
    * The join emits each ordered pair of a problem once (record ids are
    * unique), so nothing is deduplicated. The pairs are hash-partitioned
    * and sorted on (problemId, recA, recB), so the learners whose
    * selections depend on row order see one layout per shuffle partition
    * count.
    *
    * Output columns: problemId, srcA, srcB, split, recA, recB, entA, entB,
    * label, and raw attributes of both sides (a_a1..a_num2, b_a1..b_num2)
    * for feature computation; `MultiSourceGen.generate` drops them once
    * the features exist.
    */
  def candidatePairs(records: DataFrame, cfg: GenConfig): DataFrame = {
    val a = records.filter(col("block") =!= "").alias("a")
    val b = records.filter(col("block") =!= "").alias("b")

    val crossSource = col("a.source") < col("b.source")
    val withinSource = col("a.source") === col("b.source") && col("a.recId") < col("b.recId")
    val pairCond =
      if (cfg.selfProblems) crossSource || withinSource else crossSource

    val joined = a.join(b,
      col("a.block") === col("b.block") &&
      col("a.split") === col("b.split") &&
      pairCond)

    val pid =
      if (cfg.splitHalves)
        concat(lit("p"), col("a.source"), lit("_"), col("b.source"), lit("_"), col("a.split"))
      else
        concat(lit("p"), col("a.source"), lit("_"), col("b.source"))

    joined.select(
      pid                                        as "problemId",
      col("a.source")                            as "srcA",
      col("b.source")                            as "srcB",
      col("a.split")                             as "split",
      col("a.recId")                             as "recA",
      col("b.recId")                             as "recB",
      col("a.entityId")                          as "entA",
      col("b.entityId")                          as "entB",
      (col("a.entityId") === col("b.entityId")).cast("int") as "label",
      col("a.a1") as "a_a1", col("a.a2") as "a_a2", col("a.a3") as "a_a3",
      col("a.num1") as "a_num1", col("a.num2") as "a_num2",
      col("b.a1") as "b_a1", col("b.a2") as "b_a2", col("b.a3") as "b_a3",
      col("b.num1") as "b_num1", col("b.num2") as "b_num2",
    ).repartition(col("problemId"), col("recA"), col("recB"))
      .sortWithinPartitions("problemId", "recA", "recB")
  }
}
