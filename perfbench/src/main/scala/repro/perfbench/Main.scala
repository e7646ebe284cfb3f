package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.perfbench.SparkInternals
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.al.{ActiveLearner, BootstrapAL}
import repro.core._
import repro.erdata.{ERDataset, MultiSourceGen}
import repro.eval.Metrics.Confusion
import repro.jobs.JobSpark
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** A benchmark workload: one MoRER configuration on the Dexter analogue. */
final case class Workload(name: String, al: ActiveLearner, selection: String) {
  def config(learner: ActiveLearner): MoRERConfig =
    MoRERConfig(test = KS, al = learner, bTot = Main.BTot, selection = selection, tCov = 0.25)
}

object Main {
  // Sizes. Every run pays a JVM and Spark start, a cold first set-up and
  // a cold first build; these keep a run near a minute on 4 cores. See
  // perfbench/README.md for how they were chosen.
  val Sf = 0.075
  val BTot = 500
  val SetupReps = 3
  val SearchRepeats = 9
  val CovInsertions = 16
  val ProbeRepeats = 5

  val Workloads: Seq[Workload] = Seq(
    Workload("dexter-bootstrap", BootstrapAL, "base"),
    Workload("dexter-cov", BootstrapAL, "cov"),
  )

  final case class Opts(workload: Workload, seed: Int, seconds: Int, trace: Boolean, sha: String)

  def parse(args: Array[String]): Opts = {
    def fail(msg: String): Nothing = throw new IllegalArgumentException(
      s"$msg\nusage: --workload <${Workloads.map(_.name).mkString("|")}> --seed <n> --seconds <n> --trace <0|1> [--sha <git sha>]")
    if (args.length % 2 != 0) fail("arguments come in --key value pairs")
    val m = args.grouped(2).map(a => a(0) -> a(1)).toMap
    m.keys.filterNot(Set("--workload", "--seed", "--seconds", "--trace", "--sha")).foreach(k => fail(s"unknown option $k"))
    def int(k: String, default: Option[Int]): Int =
      m.get(k).map(v => v.toIntOption.getOrElse(fail(s"$k needs a whole number, got $v")))
        .orElse(default).getOrElse(fail(s"$k is required"))
    val wl = m.get("--workload").map(n => Workloads.find(_.name == n).getOrElse(fail(s"unknown workload $n")))
      .getOrElse(fail("--workload is required"))
    val trace = int("--trace", Some(0))
    if (trace != 0 && trace != 1) fail("--trace is 0 or 1")
    val seconds = int("--seconds", Some(5))
    if (seconds < 1) fail("--seconds must be at least 1")
    Opts(wl, int("--seed", Some(1)), seconds, trace == 1, m.getOrElse("--sha", "unknown"))
  }

  def main(args: Array[String]): Unit = {
    val opts =
      try parse(args)
      catch { case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2) }
    val spark = JobSpark.session(s"perfbench-${opts.workload.name}")
    val lines =
      try new Bench(spark, opts).run()
      finally spark.stop()
    lines.foreach(println)
  }
}

/** JVM and host counters, read before and after a measured phase. */
final case class JvmClock(processCpuNs: Long, jitMs: Long, gcMs: Long, stealTicks: Long) {
  def -(o: JvmClock): JvmClock =
    JvmClock(processCpuNs - o.processCpuNs, jitMs - o.jitMs, gcMs - o.gcMs, stealTicks - o.stealTicks)
  def +(o: JvmClock): JvmClock =
    JvmClock(processCpuNs + o.processCpuNs, jitMs + o.jitMs, gcMs + o.gcMs, stealTicks + o.stealTicks)
}

object JvmClock {
  val zero: JvmClock = JvmClock(0, 0, 0, 0)

  /** Host-wide steal time, in clock ticks (1/100 s), from /proc/stat. */
  private def stealTicks(): Long = {
    val f = new java.io.File("/proc/stat")
    if (!f.canRead) 0L
    else {
      val src = scala.io.Source.fromFile(f)
      try src.getLines().find(_.startsWith("cpu ")).map(_.trim.split("\\s+"))
        .filter(_.length > 8).map(_(8).toLong).getOrElse(0L)
      finally src.close()
    }
  }

  def now(): JvmClock = {
    val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
    JvmClock(
      os.getProcessCpuTime,
      ManagementFactory.getCompilationMXBean.getTotalCompilationTime,
      ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum,
      stealTicks())
  }
}

/** What one rep measured and checked. */
final case class RepOut(
    wallS: Double,
    buildS: Double,
    searchS: Seq[Double],
    insertS: Seq[Double],
    f1: Double,
    labels: Int,
    clusters: Int,
    retrains: Int,
    newClusters: Int,
    attempted: Int,
    failures: Seq[String],
    traced: Boolean,
    clock: JvmClock,
)

final class Bench(spark: SparkSession, opts: Main.Opts) {
  import Main._

  private val wl = opts.workload
  private val cov = wl.selection == "cov"
  private val sc = spark.sparkContext
  private val tracer =
    if (opts.trace) Some(new Tracer(Some(sc), () => CodegenMetrics.METRIC_COMPILATION_TIME.getCount)) else None
  private val recorder = if (opts.trace) Some(SparkRecorder.attach(spark)) else None

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  private def span[T](name: String, on: Boolean)(body: => T): T =
    tracer.filter(_ => on).map(_.span(name)(body)).getOrElse(body)

  // -------------------------------------------------------------- set-up

  /** The corpus is the generator's default Dexter analogue (seed 42);
    * `--seed` picks the initial / unsolved split. Which corpus is drawn
    * decides how many clusters Leiden finds: five generator seeds gave
    * 2, 3 or 4 clusters and first builds of 11 to 19 s, since each
    * cluster is a separate AL loop. On the default corpus, 38 of 40
    * split seeds give 3 clusters.
    */
  private val gen = MultiSourceGen.dexterConfig(Sf)

  private def setupOnce(): ERDataset = span("erdata.generate", on = true) {
    val d = MultiSourceGen.generate(spark, gen)
    d.pairs.cache()
    d.pairs.count()
    d
  }

  private val setupTimes = mutable.ArrayBuffer.empty[Double]
  private val ds: ERDataset = {
    var d: ERDataset = null
    (1 to SetupReps).foreach { _ =>
      if (d != null) d.pairs.unpersist(blocking = true)
      val t0 = System.nanoTime()
      d = setupOnce()
      setupTimes += secs(t0)
    }
    d
  }

  /** Per-problem pair counts, computed once outside any timing: the
    * reference the confusion totals are checked against.
    */
  private val pairCounts: Map[String, Long] = ds.pairs.groupBy("problemId").count().collect()
    .map(r => r.getString(0) -> r.getLong(1)).toMap
  private val (initIds, unsolvedIds) = {
    val shuffled = new Random(opts.seed).shuffle(ds.problemIds.sorted.toVector)
    shuffled.splitAt(shuffled.size / 2)
  }
  /** The unsolved problems a rep solves: all of them under sel_base, the
    * first `CovInsertions` under sel_cov.
    */
  private val solveIds: Seq[String] = {
    val present = unsolvedIds.filter(pairCounts.contains).sorted
    if (cov) present.take(CovInsertions) else present
  }
  private val solvePairs = solveIds.map(pairCounts).sum

  // ----------------------------------------------------------------- reps

  private var lastRepo: Repository = _

  private def build(cfg: MoRERConfig, traced: Boolean): Repository = {
    val hists = span("core.dist.hist", traced)(DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, cfg.numBins))
    val counts = span("core.dist.count", traced)(ds.pairs.groupBy("problemId").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap)
    span("core.init", traced)(MoRER.initRepository(spark, ds, initIds, hists, counts, cfg))
  }

  private def learner(traced: Boolean): ActiveLearner =
    if (traced) new TracingLearner(wl.al, tracer.get) else wl.al

  private def timedBuild(traced: Boolean): (Repository, Double) = {
    val t0 = System.nanoTime()
    val repo = build(wl.config(learner(traced)), traced)
    (repo, secs(t0))
  }

  /** The first build in the JVM, right after set-up. For sel_base it is
    * the untimed warm-up (it takes about half as long again as the next
    * build); for sel_cov it is the timed build and the repository every
    * rep integrates into.
    */
  private lazy val (repo0, repo0BuildS) = span("build", opts.trace && cov)(timedBuild(opts.trace && cov))

  private def rep(traced: Boolean): RepOut = {
    val cfg = wl.config(learner(traced))
    val failures = mutable.ArrayBuffer.empty[String]
    val clock0 = JvmClock.now()
    val t0 = System.nanoTime()
    span("rep", traced) {
      var attempted = 1
      if (!cov) {
        val (repo, buildS) = timedBuild(traced)
        if (repo.labelsSpent > cfg.bTot) failures += s"sel_base spent ${repo.labelsSpent} labels > b_tot ${cfg.bTot}"
        val searches = (1 to SearchRepeats).map { _ =>
          val ts = System.nanoTime()
          val (conf, assignment) = span("core.search", traced)(
            MoRER.solveBaseAllWithTest(spark, ds, repo, solveIds, cfg.test))
          val s = secs(ts)
          attempted += 1
          if (conf.total != solvePairs) failures += s"search classified ${conf.total} of $solvePairs unsolved pairs"
          if (assignment.size != solveIds.size) failures += s"search assigned ${assignment.size} of ${solveIds.size} problems"
          (s, conf)
        }
        val f1s = searches.map(_._2.f1).distinct
        if (f1s.size != 1) failures += s"repeated searches gave different F1s $f1s"
        lastRepo = repo
        RepOut(0, buildS, searches.map(_._1), Nil, f1s.head, repo.labelsSpent,
          repo.numClusters, 0, 0, attempted, failures.toSeq, traced, JvmClock.zero)
      } else {
        var r = repo0
        var conf = Confusion.empty
        var retrains = 0
        var newClusters = 0
        val lat = mutable.ArrayBuffer.empty[Double]
        solveIds.foreach { pid =>
          val tp = System.nanoTime()
          val (c, r2) = span("core.cov", traced)(MoRER.solveCov(spark, ds, r, pid, cfg))
          lat += secs(tp)
          attempted += 1
          if (c.total != pairCounts(pid)) failures += s"insertion of $pid classified ${c.total} of ${pairCounts(pid)} pairs"
          if (r2.numClusters > r.numClusters) newClusters += 1
          else if (r2.labelsSpent > r.labelsSpent) retrains += 1
          conf = conf + c
          r = r2
        }
        if (conf.total != solvePairs) failures += s"integration classified ${conf.total} of $solvePairs pairs"
        lastRepo = r
        RepOut(0, repo0BuildS, Nil, lat.toSeq, conf.f1, r.labelsSpent,
          r.numClusters, retrains, newClusters, attempted, failures.toSeq, traced, JvmClock.zero)
      }
    }.copy(wallS = secs(t0), clock = JvmClock.now() - clock0)
  }

  // ------------------------------------------------------------------ run

  def run(): Seq[String] = {
    repo0
    // sel_cov: one untimed pass of the insertions warms their code paths,
    // as the first build does for sel_base.
    val warm = if (cov) Seq(rep(traced = false)) else Nil
    val timed = mutable.ArrayBuffer.empty[RepOut]
    val clock0 = JvmClock.now()
    val t0 = System.nanoTime()
    // Traced runs alternate untraced and traced reps, so the tracing
    // overhead is measured within one JVM.
    while (timed.size < (if (opts.trace) 2 else 1) || secs(t0) < opts.seconds)
      timed += rep(traced = opts.trace && timed.size % 2 == 1)
    val timedS = secs(t0)
    val clock = JvmClock.now() - clock0

    val heapMb = Stats.median((1 to 3).map { _ =>
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    })

    // Determinism: every rep, traced or not, gives the same F1 and label
    // count, and every sel_base build spends what the first one did.
    val mismatch = (warm ++ timed).filter(r => r.f1 != timed.head.f1 || r.labels != timed.head.labels ||
      (!cov && r.labels != repo0.labelsSpent)).map(r =>
      s"rep gave F1 ${r.f1} / ${r.labels} labels, first rep ${timed.head.f1} / ${timed.head.labels}, " +
      s"first build ${repo0.labelsSpent} labels")
    val failed = timed.map(_.failures.size).sum + mismatch.size
    val attempted = timed.map(_.attempted).sum
    val fails = ((warm ++ timed).flatMap(_.failures) ++ mismatch).distinct

    val untraced = timed.filterNot(_.traced)
    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) endToEnd(untraced.toSeq, heapMb)
      else perLayer(timed.toSeq)

    val context = Json.obj(
      "context" -> Json.obj(
        "workload" -> Json.str(wl.name),
        "seed" -> Json.num(opts.seed),
        "generator_seed" -> Json.num(gen.seed.toDouble),
        "git_sha" -> Json.str(opts.sha),
        "cores" -> Json.num(Runtime.getRuntime.availableProcessors()),
        "heap_max_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1048576.0),
        "spark_master" -> Json.str(sc.master),
        "spark_parallelism" -> Json.num(sc.defaultParallelism),
        "spark_shuffle_partitions" -> Json.str(spark.conf.get("spark.sql.shuffle.partitions")),
        "spark_broadcast_threshold" -> Json.str(spark.conf.get("spark.sql.autoBroadcastJoinThreshold")),
        "spark_ui" -> Json.str(sc.getConf.get("spark.ui.enabled", "true")),
        "sf" -> Json.num(Sf),
        "b_tot" -> Json.num(BTot),
        "pairs" -> Json.num(pairCounts.values.sum.toDouble),
        "problems_init" -> Json.num(initIds.size),
        "problems_solved_per_rep" -> Json.num(solveIds.size),
        "setup_reps" -> Json.num(SetupReps),
        "setup_s" -> Json.arr(setupTimes.map(Json.num)),
        "first_build_s" -> Json.num(repo0BuildS),
        "first_build_labels" -> Json.num(repo0.labelsSpent),
        "warmup_reps" -> Json.num(warm.size),
        "timed_reps" -> Json.num(timed.size),
        "traced_reps" -> Json.num(timed.count(_.traced)),
        "timed_s" -> Json.num(timedS),
        "rep_wall_s" -> Json.arr(timed.map(r => Json.num(r.wallS))),
        "build_s" -> Json.arr(timed.map(r => Json.num(r.buildS))),
        "search_s" -> Json.arr(timed.flatMap(_.searchS).map(Json.num)),
        "insertion_samples" -> Json.num(untraced.map(_.insertS.size).sum),
        "insertion_tail_percentile" -> Json.num(
          Stats.tailPercentile(untraced.map(_.insertS.size).sum).getOrElse(0) / 10.0),
        "host.steal_s" -> Json.num(clock.stealTicks / 100.0),
        "jvm.jit_s" -> Json.num(clock.jitMs / 1000.0),
        "jvm.gc_s" -> Json.num(clock.gcMs / 1000.0),
        "jvm.process_cpu_s" -> Json.num(clock.processCpuNs / 1e9),
        "f1" -> Json.num(timed.head.f1),
        "labels" -> Json.num(timed.head.labels),
        "clusters" -> Json.num(timed.head.clusters),
        "failures" -> Json.arr(fails.map(Json.str)),
      ))

    val breakdown = if (opts.trace) Seq(Json.obj("breakdown" -> breakdownJson())) else Nil
    val result = Json.obj(
      "correct" -> Json.bool(failed == 0),
      "attempted" -> Json.num(attempted),
      "failed" -> Json.num(failed),
      "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u)) }: _*))
    (context +: breakdown) :+ result
  }

  private def endToEnd(reps: Seq[RepOut], heapMb: Double): Seq[(String, Double, String)] = Seq(
    ("setup_s", Stats.median(setupTimes.toSeq), "s"),
    ("build_s", Stats.median(reps.map(_.buildS)), "s"),
    ("solve_s", Stats.median(if (cov) reps.flatMap(_.insertS) else reps.flatMap(_.searchS)), "s"),
    ("f1", reps.head.f1, "1"),
    ("labels", reps.head.labels.toDouble, "count"),
    ("heap_live_mb", heapMb, "MB"),
  )

  // -------------------------------------------------------------- tracing

  private lazy val events: (Seq[Span], Attribution) = {
    SparkInternals.drain(sc)
    (tracer.get.spans, recorder.get.snapshot)
  }

  /** The spans of the traced phase: the traced reps and, under sel_cov,
    * the build of the repository they integrate into.
    */
  private def inReps(spans: Seq[Span]): Seq[Span] = {
    val byId = spans.map(s => s.id -> s).toMap
    def underRep(s: Span): Boolean =
      s.name == "rep" || (cov && s.name == "build") || (s.parent >= 0 && underRep(byId(s.parent)))
    spans.filter(underRep)
  }

  /** Per span name over the traced reps: calls, inclusive and self wall
    * time, and the Spark work attributed to spans of that name.
    */
  private def breakdownJson(): String = {
    val (spans, attr) = events
    val rs = inReps(spans)
    val nReps = rs.count(_.name == "rep").toDouble
    val children = rs.groupBy(_.parent)
    Json.obj(rs.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      val w = attr.of(ss.map(_.id).toSet)
      name -> Json.obj(
        "calls_per_rep" -> Json.num(ss.size / nReps),
        "wall_s_per_rep" -> Json.num(ss.map(_.nanos).sum / 1e9 / nReps),
        "self_s_per_rep" -> Json.num(ss.map(s => Span.selfNanos(s, children.getOrElse(s.id, Nil))).sum / 1e9 / nReps),
        "spark_busy_s_per_rep" -> Json.num(w.busyMs / 1e3 / nReps),
        "jobs_per_rep" -> Json.num(w.jobs / nReps),
        "tasks_per_rep" -> Json.num(w.tasks / nReps),
        "exec_cpu_s_per_rep" -> Json.num(w.execCpuNs / 1e9 / nReps),
      )
    }: _*)
  }

  private def perLayer(timed: Seq[RepOut]): Seq[(String, Double, String)] = {
    val (spans, attr) = events
    val rs = inReps(spans)
    val traced = timed.filter(_.traced)
    val n = traced.size.toDouble
    val children = rs.groupBy(_.parent)
    def named(name: String): Seq[Span] = rs.filter(_.name == name)
    def wall(name: String): Double = named(name).map(_.nanos).sum / 1e9 / n
    def self(name: String): Double =
      named(name).map(s => Span.selfNanos(s, children.getOrElse(s.id, Nil))).sum / 1e9 / n
    def work(names: String*): SparkWork = attr.of(rs.filter(s => names.contains(s.name)).map(_.id).toSet)

    // Driver-side layers are timed by calling them again on the inputs
    // the last rep used.
    val repo = lastRepo
    val initGraph = ProblemGraph.build(repo.problemHists, initIds.filter(repo.problemHists.contains).sorted, KS)
    val graphS = Stats.median((1 to ProbeRepeats).map { _ =>
      val t0 = System.nanoTime()
      ProblemGraph.build(repo.problemHists, initIds.filter(repo.problemHists.contains).sorted, KS)
      secs(t0)
    })
    val finalGraph = repo.graph
    val leidenS = Stats.median((1 to ProbeRepeats).map { _ =>
      val t0 = System.nanoTime()
      Leiden.cluster(finalGraph.nodes.size, finalGraph.edges, seed = wl.config(wl.al).seed)
      secs(t0)
    })
    val idfS = {
      val ids = initIds.filter(repo.problemHists.contains)
      val pairsI = ds.pairs.filter(col("problemId").isin(ids: _*))
        .select("problemId", "recA", "recB", "features", "label").cache()
      pairsI.count()
      val clusterOf = ids.flatMap(p => repo.modelOf.get(p).map(p -> _)).toMap
      val t0 = System.nanoTime()
      ModelRepository.idfScores(spark, pairsI, clusterOf)
      val s = secs(t0)
      pairsI.unpersist()
      s
    }

    val alW = work("al.select")
    val alS = wall("al.select")
    val selectName = if (cov) "core.cov" else "core.search"
    val selectW = work(selectName)
    val all = attr.of(rs.map(_.id).toSet)
    val distW = work("core.dist.hist", "core.dist.count")
    val clock = traced.map(_.clock).foldLeft(JvmClock.zero)(_ + _)
    val untracedWall = Stats.median(timed.filterNot(_.traced).map(_.wallS))
    val leidenCalls = named("core.init").size + named("core.cov").size
    val setupSpans = spans.filter(_.name == "erdata.generate")

    Seq(
      ("erdata.generate_s", Stats.median(setupSpans.map(_.nanos / 1e9)), "s"),
      ("erdata.pairs", pairCounts.values.sum.toDouble, "count"),
      ("erdata.problems", pairCounts.size.toDouble, "count"),
      ("core.dist.hist_s", wall("core.dist.hist"), "s"),
      ("core.dist.count_s", wall("core.dist.count"), "s"),
      ("core.dist.jobs", distW.jobs / n, "count"),
      ("core.graph.s", graphS, "s"),
      ("core.graph.sims", initGraph.nodes.size * (initGraph.nodes.size - 1) / 2.0, "count"),
      ("core.graph.edges", initGraph.edges.size.toDouble, "count"),
      ("core.leiden.s", leidenS, "s"),
      ("core.leiden.calls", leidenCalls / n, "count"),
      ("core.leiden.clusters", traced.head.clusters.toDouble, "count"),
      ("core.init.self_s", self("core.init"), "s"),
      ("core.repo.idf_s", idfS, "s"),
      ("core.repo.classify_s", selectW.busyMs / 1e3 / n, "s"),
      ("core.repo.classify_jobs", selectW.jobs / n, "count"),
      ("core.select.driver_s", self(selectName) - selectW.busyMs / 1e3 / n, "s"),
      ("core.cov.retrains", traced.map(_.retrains).sum / n, "count"),
      ("core.cov.new_clusters", traced.map(_.newClusters).sum / n, "count"),
      ("al.select_s", alS, "s"),
      ("al.select_calls", named("al.select").size / n, "count"),
      ("al.labels", tracer.get.counters.getOrElse("al.labels", 0.0) / n, "count"),
      ("al.jobs", alW.jobs / n, "count"),
      ("al.spark_s", alW.busyMs / 1e3 / n, "s"),
      ("al.driver_s", alS - alW.busyMs / 1e3 / n, "s"),
      ("al.exec_cpu_s", alW.execCpuNs / 1e9 / n, "s"),
      ("spark.jobs", all.jobs / n, "count"),
      ("spark.stages", all.stages / n, "count"),
      ("spark.tasks", all.tasks / n, "count"),
      ("spark.queries", all.queries / n, "count"),
      ("spark.plan_s", all.planNs / 1e9 / n, "s"),
      ("spark.codegen_classes", rs.filter(_.parent < 0).map(_.codegen).sum / n, "count"),
      ("spark.exec_run_s", all.execRunMs / 1e3 / n, "s"),
      ("spark.exec_cpu_s", all.execCpuNs / 1e9 / n, "s"),
      ("spark.shuffle_write_mb", all.shuffleBytes / 1048576.0 / n, "MB"),
      ("jvm.process_cpu_s", clock.processCpuNs / 1e9 / n, "s"),
      ("jvm.jit_s", clock.jitMs / 1e3 / n, "s"),
      ("jvm.gc_s", clock.gcMs / 1e3 / n, "s"),
      ("trace.rep_s", wall("rep"), "s"),
      ("trace.overhead_s", wall("rep") - untracedWall, "s"),
      ("trace.unattributed_s", self("rep"), "s"),
    )
  }
}

/** Just enough JSON writing for the result lines. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }
  def num(i: Int): String = i.toString
  def bool(b: Boolean): String = b.toString
  def arr(xs: Iterable[String]): String = xs.mkString("[", ", ", "]")
  def obj(kvs: (String, String)*): String = kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
