package repro.eval

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import scala.util.Random
import repro.al.{ALConfig, ActiveLearner, AlmserAL, BootstrapAL}
import repro.baselines._
import repro.core._
import repro.erdata.{ERDataset, MultiSourceGen}

/** Shared harness for the paper's evaluation tables. Benchmarks
  * (bench/) assert on its outputs; spark-submit jobs (jobs/) print them.
  */
object Experiments {

  /** Bench scale factors. The efficiency table (Table 4) runs at paper
    * scale by default — the runtime shape (Almser's graph cost, neural
    * training cost) only dominates constant Spark overheads at full
    * size. The quality sweeps (Table 5, Fig. 7/8 data) measure F1, not
    * time, and run at half scale by default. Table 2 always reports
    * paper scale.
    */
  def benchSf: Double = sys.env.getOrElse("REPRO_BENCH_SF", "1.0").toDouble
  def benchSfAux: Double = sys.env.getOrElse("REPRO_BENCH_SF_AUX", "0.5").toDouble

  final case class Bundle(
      name: String,
      ds: ERDataset,
      initIds: Seq[String],
      unsolvedIds: Seq[String],
  )

  /** Generate a dataset and split its ER problems into P_I / P_U.
    * Dexter: random `ratioInit` split (paper default 50%). WDC/Music:
    * the train problems are P_I, the test problems P_U (the paper uses
    * the corpora's provided train/test splits). Caches `ds.pairs`.
    */
  def load(
      spark: SparkSession,
      name: String,
      sf: Double,
      ratioInit: Double = 0.5,
      seed: Long = 1,
  ): Bundle = {
    val cfg = name match {
      case "dexter" => MultiSourceGen.dexterConfig(sf)
      case "wdc"    => MultiSourceGen.wdcConfig(sf)
      case "music"  => MultiSourceGen.musicConfig(sf)
      case other    => throw new IllegalArgumentException(s"unknown dataset $other")
    }
    val ds = MultiSourceGen.generate(spark, cfg)
    ds.pairs.cache()
    ds.pairs.count()
    val (init, unsolved) =
      if (cfg.splitHalves) (ds.problems.filter(_.split == "train").map(_.id),
                            ds.problems.filter(_.split == "test").map(_.id))
      else {
        val shuffled = new Random(seed).shuffle(ds.problemIds.sorted.toVector)
        val k = math.max(1, (shuffled.size * ratioInit).toInt)
        (shuffled.take(k), shuffled.drop(k))
      }
    Bundle(name, ds, init, unsolved)
  }

  def unload(b: Bundle): Unit = b.ds.pairs.unpersist()

  // ------------------------------------------------------------ methods

  final case class RunResult(method: String, dataset: String, budget: Int,
                             f1: Double, seconds: Double, labels: Int)

  /** Times `body`, which returns the run's F1 and labels, and prints a
    * progress line per finished run (stderr, so table output stays clean).
    */
  private def timedRun(method: String, b: Bundle, budget: Int)(body: => (Double, Int)): RunResult = {
    val ((f1, labels), secs) = Timing.timed(body)
    val r = RunResult(method, b.name, budget, f1, secs, labels)
    Console.err.println(
      f"[bench] ${r.dataset}%-7s ${r.method}%-16s b=${r.budget}%5d f1=${r.f1}%.3f t=${r.seconds}%7.1fs")
    r
  }

  /** "all", or the training fraction as a percentage. */
  private def fractionTag(fraction: Double): String =
    if (fraction >= 1.0) "all" else s"${(fraction * 100).toInt}%"

  /** MoRER with the given AL method (full pipeline timed end to end). */
  def runMoRER(
      spark: SparkSession,
      b: Bundle,
      al: ActiveLearner,
      budget: Int,
      test: DistTest = KS,
      selection: String = "base",
      tCov: Double = 0.25,
      seed: Long = 7,
  ): RunResult = {
    val cfg = MoRERConfig(test = test, al = al, bTot = budget,
      selection = selection, tCov = tCov, seed = seed)
    timedRun(s"MoRER+${al.name}", b, budget) {
      val res = MoRER.run(spark, b.ds, b.initIds, b.unsolvedIds, cfg)
      (res.f1, res.labelsSpent)
    }
  }

  def runAlmserStandalone(spark: SparkSession, b: Bundle, budget: Int, seed: Long = 7): RunResult =
    timedRun("Almser", b, budget) {
      (AlmserStandalone.run(spark, b.ds, b.initIds, b.unsolvedIds, budget, ALConfig(), seed).f1, budget)
    }

  def runTransER(spark: SparkSession, b: Bundle, fraction: Double, seed: Long = 7): RunResult =
    timedRun(s"TransER-${fractionTag(fraction)}", b, 0) {
      (TransER.run(spark, b.ds, b.initIds, b.unsolvedIds, fraction, seed = seed).f1, 0)
    }

  def runDitto(spark: SparkSession, b: Bundle, fraction: Double, seed: Long = 7): RunResult =
    timedRun(s"Ditto-${fractionTag(fraction)}", b, 0) {
      (DittoSim.run(spark, b.ds, b.initIds, b.unsolvedIds, fraction, seed = seed).f1, 0)
    }

  def runSudowoodo(spark: SparkSession, b: Bundle, budget: Int, seed: Long = 7): RunResult =
    timedRun("Sudowoodo", b, budget) {
      (SudowoodoSim.run(spark, b.ds, b.initIds, b.unsolvedIds, budget, seed = seed).f1, budget)
    }

  def runAnyMatch(spark: SparkSession, b: Bundle, seed: Long = 7): RunResult =
    timedRun("AnyMatch", b, 0) {
      (AnyMatchSim.run(spark, b.ds, b.initIds, b.unsolvedIds, seed = seed).f1, AnyMatchSim.DefaultSample)
    }

  def runMultiEM(b: Bundle): RunResult =
    timedRun("MultiEM", b, 0)((MultiEMSim.run(b.ds, b.unsolvedIds).f1, 0))

  // ------------------------------------------------------------- tables

  final case class DatasetStats(name: String, problems: Long, pairs: Long, matches: Long)

  /** Table 2: dataset statistics at paper scale (sf=1). */
  def table2(spark: SparkSession, sf: Double = 1.0): Seq[DatasetStats] =
    Seq("dexter", "wdc", "music").map { name =>
      val b = load(spark, name, sf)
      val pairs = b.ds.pairs.count()
      val matches = b.ds.pairs.filter(col("label") === 1).count()
      val problems = b.ds.pairs.select("problemId").distinct().count()
      unload(b)
      DatasetStats(name, problems, pairs, matches)
    }

  /** Table 4 (plus the Fig. 5 F1 data): every method timed on every
    * dataset; MoRER variants per budget, budget-independent baselines
    * once per dataset. Returns all raw runs — speedups are derived as
    * time(baseline)/time(MoRER variant).
    */
  def table4(
      spark: SparkSession,
      datasets: Seq[String] = Seq("dexter", "music", "wdc"),
      budgets: Seq[Int] = Seq(1000, 1500, 2000),
      sf: Double = benchSf,
      seed: Long = 7,
  ): Seq[RunResult] = {
    datasets.flatMap { name =>
      val b = load(spark, name, sf)
      // untimed warm-up: pays the per-schema JIT/codegen cost once so the
      // first recorded run is not inflated relative to later ones
      Timing.timed(MoRER.run(spark, b.ds, b.initIds, b.unsolvedIds.take(2),
        MoRERConfig(bTot = 200, bMin = 5, seed = seed)))
      val morer = for {
        budget <- budgets
        al <- Seq(AlmserAL, BootstrapAL)
      } yield runMoRER(spark, b, al, budget, seed = seed)
      val almser = budgets.map(budget => runAlmserStandalone(spark, b, budget, seed))
      val others = Seq(
        runTransER(spark, b, 1.0, seed), runTransER(spark, b, 0.5, seed),
        runDitto(spark, b, 1.0, seed), runDitto(spark, b, 0.5, seed),
        runSudowoodo(spark, b, budgets.head, seed),
        runAnyMatch(spark, b, seed),
        runMultiEM(b))
      unload(b)
      morer ++ almser ++ others
    }
  }

  /** Speedup rows derived from table4 raw runs: for each
    * (dataset, budget, MoRER variant), baseline_time / morer_time.
    */
  def speedups(runs: Seq[RunResult]): Seq[(String, String, Int, String, Double)] = {
    val byDs = runs.groupBy(_.dataset)
    byDs.toSeq.sortBy(_._1).flatMap { case (ds, rs) =>
      def timeOf(m: String, budget: Int): Option[Double] =
        rs.find(r => r.method == m && (r.budget == budget || r.budget == 0))
          .orElse(rs.find(_.method == m)).map(_.seconds)
      for {
        morer <- rs.filter(_.method.startsWith("MoRER+"))
        base  <- Seq("Almser", "TransER-all", "TransER-50%", "Sudowoodo",
                     "Ditto-all", "Ditto-50%", "AnyMatch")
        t <- timeOf(base, morer.budget)
      } yield (ds, morer.method, morer.budget, base, t / morer.seconds)
    }
  }

  final case class Table5Row(budget: Int, ratioInit: Double, alName: String,
                             f1Mean: Double, f1Std: Double)

  /** Table 5: Dexter, ratio_init ∈ {30%, 50%} × budgets × AL methods,
    * mean/std over `seeds` repetitions (different problem splits and AL
    * seeds, same corpus).
    */
  def table5(
      spark: SparkSession,
      budgets: Seq[Int] = Seq(1000, 1500, 2000),
      ratios: Seq[Double] = Seq(0.3, 0.5),
      seeds: Seq[Long] = Seq(1, 2, 3),
      sf: Double = benchSfAux,
  ): Seq[Table5Row] = {
    // one corpus + problem split per (ratio, seed); every (budget, AL)
    // cell reuses it — the split seed is the repetition variable
    val cells = for {
      ratio <- ratios
      seed <- seeds
    } yield {
      val b = load(spark, "dexter", sf, ratioInit = ratio, seed = seed)
      val runs = for {
        budget <- budgets
        al <- Seq(AlmserAL, BootstrapAL)
      } yield ((budget, ratio, al.name), runMoRER(spark, b, al, budget, seed = seed + 7).f1)
      unload(b)
      runs
    }
    val byCell = cells.flatten.groupBy(_._1)
    (for {
      ratio <- ratios
      budget <- budgets
      al <- Seq(AlmserAL, BootstrapAL)
    } yield {
      val (m, sd) = Metrics.meanStd(byCell((budget, ratio, al.name)).map(_._2))
      Table5Row(budget, ratio, al.name, m, sd)
    })
  }

  /** Fig. 7 data (auxiliary shape check): F1 per distribution test ×
    * AL method on each dataset at one budget.
    */
  def distributionTestSweep(
      spark: SparkSession,
      datasets: Seq[String] = Seq("dexter", "music", "wdc"),
      budget: Int = 1000,
      sf: Double = benchSfAux,
      seed: Long = 7,
  ): Seq[RunResult] =
    datasets.flatMap { name =>
      val b = load(spark, name, sf)
      val out = for {
        test <- DistTest.all
        al <- Seq(BootstrapAL, AlmserAL)
      } yield runMoRER(spark, b, al, budget, test = test, seed = seed)
        .copy(method = s"MoRER+${al.name}/${test.name}")
      unload(b)
      out
    }

  /** Fig. 8 data (auxiliary shape check): sel_base vs sel_cov at
    * t_cov ∈ {0.1, 0.25, 0.5}, Bootstrap AL, budget 1000. The labels
    * column reports the total labeling effort incl. retraining.
    */
  def selectionSweep(
      spark: SparkSession,
      datasets: Seq[String] = Seq("dexter", "music", "wdc"),
      budget: Int = 1000,
      sf: Double = benchSfAux,
      seed: Long = 7,
  ): Seq[RunResult] =
    datasets.flatMap { name =>
      val b = load(spark, name, sf)
      val base = runMoRER(spark, b, BootstrapAL, budget, selection = "base", seed = seed)
        .copy(method = "sel_base")
      val covs = Seq(0.1, 0.25, 0.5).map { t =>
        runMoRER(spark, b, BootstrapAL, budget, selection = "cov", tCov = t, seed = seed)
          .copy(method = s"sel_cov($t)")
      }
      unload(b)
      base +: covs
    }

  // --------------------------------------------------------- formatting

  def formatRuns(runs: Seq[RunResult]): String = {
    val header = f"${"dataset"}%-8s ${"method"}%-16s ${"budget"}%6s ${"F1"}%6s ${"time(s)"}%8s"
    (header +: runs.map(r =>
      f"${r.dataset}%-8s ${r.method}%-16s ${r.budget}%6d ${r.f1}%6.3f ${r.seconds}%8.1f"))
      .mkString("\n")
  }

  def formatSpeedups(sp: Seq[(String, String, Int, String, Double)]): String = {
    val header = f"${"dataset"}%-8s ${"variant"}%-16s ${"budget"}%6s ${"baseline"}%-12s ${"speedup"}%8s"
    (header +: sp.map { case (ds, v, b, base, x) =>
      f"$ds%-8s $v%-16s $b%6d $base%-12s $x%8.1f"
    }).mkString("\n")
  }

  def formatTable5(rows: Seq[Table5Row]): String = {
    val header = f"${"budget"}%6s ${"ratio"}%6s ${"AL"}%-10s ${"F1"}%6s ${"std"}%6s"
    (header +: rows.map(r =>
      f"${r.budget}%6d ${(r.ratioInit * 100).toInt}%5d%% ${r.alName}%-10s ${r.f1Mean}%6.3f ${r.f1Std}%6.3f"))
      .mkString("\n")
  }
}
