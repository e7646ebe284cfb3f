package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Experiments

/** Reproduces Table 2 (dataset statistics) at paper scale and dumps the
  * Table 3 parameter grid. `spark-submit --class repro.jobs.Table2Stats`.
  */
object Table2Stats {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table2")
    val stats = Experiments.table2(spark, sf = 1.0)
    println("== Table 2: dataset statistics (paper: dexter 276/1100K/368K, " +
      "wdc 12/74.5K/4.8K, music 20/385.9K/16.2K) ==")
    stats.foreach { s =>
      println(f"${s.name}%-8s problems=${s.problems}%4d pairs=${s.pairs}%9d matches=${s.matches}%8d" +
        f" (${100.0 * s.matches / math.max(1, s.pairs)}%.1f%%)")
    }
    println()
    println("== Table 3: MoRER parameter grid (defaults in bold in the paper) ==")
    println("ratio_init        : 50% (default), 30%")
    println("distribution test : KS (default), WD, PSI")
    println("model generation  : AL (default), supervised")
    println("AL method         : Bootstrap (default), Almser")
    println("selection method  : sel_base (default), sel_cov")
    spark.stop()
  }
}

/** Shared session builder for the job entrypoints.
  *
  * Shuffles write one partition per core (`defaultParallelism`) unless
  * `SPARK_SHUFFLE_PARTITIONS` says otherwise: a MoRER pass aggregates a
  * few thousand to a few hundred thousand small rows, so a fixed 64
  * reduce tasks per pass cost more in task overhead than they save.
  * The UI is off, so its status store keeps only the last 20 queries,
  * jobs and stages instead of 1000 each, which the heap would otherwise
  * hold for the life of the session.
  */
object JobSpark {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .config("spark.sql.ui.retainedExecutions", 20)
      .config("spark.ui.retainedJobs", 20)
      .config("spark.ui.retainedStages", 20)
      .getOrCreate()
    s.conf.set("spark.sql.shuffle.partitions",
      sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", s.sparkContext.defaultParallelism.toString))
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
