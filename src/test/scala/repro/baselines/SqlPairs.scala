package repro.baselines

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, hash, lit, pmod}
import repro.erdata.ERDataset

/** SQL views of the pair table that the program once read it through:
  * the references its passes over the pair blocks and its draws by
  * `ERDataset.pairRank` are held equal to.
  */
object SqlPairs {

  /** The candidate pairs of the problems `ids`. */
  def pairsOf(ds: ERDataset, ids: Seq[String]): DataFrame = ds.pairs.filter(col("problemId").isin(ids: _*))

  /** `ERDataset.pairRank` of a table's `recA` and `recB` columns, in SQL:
    * Spark's `hash` is the same Murmur3 chain with seed 42.
    */
  def pairRank(seed: Long): Column =
    pmod(hash(lit(seed), col("recA"), col("recB")), lit(1L << 32)) / lit(4294967296.0)
}
