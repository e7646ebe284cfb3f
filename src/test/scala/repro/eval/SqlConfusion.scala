package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.eval.Metrics.Confusion

/** The SQL aggregate that once counted the text baselines' confusions:
  * the reference the driver-side counts are held equal to.
  */
object SqlConfusion {

  /** Confusion of a DataFrame with 0/1 columns `label` and `pred`. */
  def of(df: DataFrame): Confusion = {
    val r = df.agg(
      sum(when(col("label") === 1 && col("pred") === 1, 1).otherwise(0)) as "tp",
      sum(when(col("label") === 0 && col("pred") === 1, 1).otherwise(0)) as "fp",
      sum(when(col("label") === 1 && col("pred") === 0, 1).otherwise(0)) as "fn",
      sum(when(col("label") === 0 && col("pred") === 0, 1).otherwise(0)) as "tn",
    ).collect()(0)
    def g(i: Int): Long = if (r.isNullAt(i)) 0L else r.getLong(i)
    Confusion(g(0), g(1), g(2), g(3))
  }
}
