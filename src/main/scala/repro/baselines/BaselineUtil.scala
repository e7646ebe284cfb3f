package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Shared plumbing for the baseline simulators: record-pair text
  * serialization (the "COL val" style input of the language-model
  * methods, reduced to token streams) and train/test pair access.
  */
object BaselineUtil {

  /** Columns for text-pair classification: aText, bText, label. */
  def textPairs(pairs: DataFrame): DataFrame = {
    def side(p: String) = concat_ws(" ",
      col(s"${p}_a1"), col(s"${p}_a2"), col(s"${p}_a3"),
      when(col(s"${p}_num1") > 0, col(s"${p}_num1").cast("int").cast("string")).otherwise(""),
      when(col(s"${p}_num2") > 0, col(s"${p}_num2").cast("int").cast("string")).otherwise(""))
    pairs.select(
      col("problemId"), col("recA"), col("recB"),
      side("a") as "aText", side("b") as "bText", col("label"))
  }

  def filterProblems(pairs: DataFrame, ids: Seq[String]): DataFrame =
    pairs.filter(col("problemId").isin(ids: _*))
}
