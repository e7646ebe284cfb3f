package repro.baselines

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.erdata.ERDataset

/** The SQL serialization the text baselines once read their pairs
  * through: the reference that `ERDataset.recordText` and the scoring
  * pass over the pair blocks are held equal to.
  */
object SqlTextPairs {

  /** `pairs` (problemId, recA, recB, label, ...) joined with the records
    * of both sides: (problemId, recA, recB, aText, bText, label), where a
    * side's text is a1, a2, a3 and the positive num1/num2 as whole
    * numbers.
    */
  def of(ds: ERDataset, pairs: DataFrame): DataFrame = {
    def side(r: String): Column = concat_ws(" ",
      col(s"$r.a1"), col(s"$r.a2"), col(s"$r.a3"),
      when(col(s"$r.num1") > 0, col(s"$r.num1").cast("int").cast("string")).otherwise(""),
      when(col(s"$r.num2") > 0, col(s"$r.num2").cast("int").cast("string")).otherwise(""))
    val recs = ds.records.select("recId", "a1", "a2", "a3", "num1", "num2")
    pairs.alias("p")
      .join(recs.alias("a"), col("p.recA") === col("a.recId"))
      .join(recs.alias("b"), col("p.recB") === col("b.recId"))
      .select(col("p.problemId"), col("p.recA"), col("p.recB"), side("a") as "aText", side("b") as "bText",
        col("p.label"))
  }
}
