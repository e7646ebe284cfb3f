package repro.perfbench

import org.apache.spark.sql.perfbench.SparkInternals
import org.apache.spark.sql.SparkSession

/** Tests of the benchmark's own arithmetic and attribution:
  * `python3 perfbench/run.py --self-test`. Exits non-zero on a failure.
  */
object SelfTest {
  private var failures = 0

  private def check(name: String)(cond: => Boolean): Unit = {
    val ok =
      try cond
      catch { case e: Throwable => println(s"      $name threw $e"); false }
    println((if (ok) "ok    " else "FAIL  ") + name)
    if (!ok) failures += 1
  }

  private def percentileRule(): Unit = {
    check("percentile interpolates between closest ranks") {
      Stats.percentile(Seq(4.0, 1.0, 3.0, 2.0), 50) == 2.5 &&
      math.abs(Stats.percentile((1 to 10).map(_.toDouble), 90) - 9.1) < 1e-12 &&
      Stats.percentile(Seq(7.0), 90) == 7.0
    }
    check("samples beyond a percentile are counted exactly") {
      Stats.beyond(138, 900) == 13 && Stats.beyond(100, 900) == 10 &&
      Stats.beyond(99, 900) == 9 && Stats.beyond(1000, 999) == 1
    }
    check("tail percentile is the highest with at least ten samples beyond it") {
      Stats.tailPercentile(19).isEmpty &&
      Stats.tailPercentile(20).contains(500) &&
      Stats.tailPercentile(99).contains(500) &&
      Stats.tailPercentile(100).contains(900) &&
      Stats.tailPercentile(138).contains(900) &&
      Stats.tailPercentile(200).contains(950) &&
      Stats.tailPercentile(1000).contains(990) &&
      Stats.tailPercentile(10000).contains(999)
    }
  }

  private def selfTime(): Unit = {
    def s(id: Int, parent: Int, start: Long, end: Long) = Span(id, s"s$id", parent, start, end, 0)
    val parent = s(0, -1, 0, 100)
    check("union length merges overlapping and nested intervals") {
      Span.unionLength(Seq((10L, 30L), (20L, 50L), (25L, 40L), (60L, 70L))) == 50 &&
      Span.unionLength(Nil) == 0
    }
    check("self time is duration minus the part children cover") {
      Span.selfNanos(parent, Seq(s(1, 0, 10, 30), s(2, 0, 20, 50))) == 60 &&
      Span.selfNanos(parent, Nil) == 100
    }
    check("children are clipped to their parent's interval") {
      Span.selfNanos(parent, Seq(s(1, 0, 90, 120), s(2, 0, -5, 5))) == 85
    }
    check("tracer records nesting and parents") {
      val t = new Tracer(None, () => 0L)
      t.span("a") { t.span("b")(()); t.span("c") { t.span("d")(()) } }
      t.span("e")(())
      val byName = t.spans.map(x => x.name -> x).toMap
      byName("a").parent == -1 && byName("b").parent == byName("a").id &&
      byName("c").parent == byName("a").id && byName("d").parent == byName("c").id &&
      byName("e").parent == -1 &&
      t.spans.forall(x => x.endNs >= x.startNs) &&
      Span.selfNanos(byName("a"), Seq(byName("b"), byName("c"))) <= byName("a").nanos
    }
  }

  private def attribution(): Unit = {
    val spark = SparkSession.builder.master("local[2]").appName("perfbench-selftest")
      .config("spark.ui.enabled", value = false).config("spark.sql.shuffle.partitions", "4")
      .getOrCreate()
    try {
      val rec = SparkRecorder.attach(spark)
      val codegen = new java.util.concurrent.atomic.AtomicLong()
      val t = new Tracer(Some(spark.sparkContext), () => codegen.get)
      spark.range(10).count() // before any span
      t.span("outer") {
        spark.range(100).count()
        t.span("inner") { spark.range(50).selectExpr("id % 7 as k").groupBy("k").count().collect() }
        spark.range(5).collect()
      }
      spark.range(3).count() // after every span closed
      SparkInternals.drain(spark.sparkContext)
      val attr = rec.snapshot
      val ids = t.spans.map(x => x.name -> x.id).toMap
      val outer = attr.of(Set(ids("outer")))
      val inner = attr.of(Set(ids("inner")))
      val none = attr.of(Set(-1))
      check("a job is attributed to the span open when it started") {
        outer.jobs >= 2 && inner.jobs >= 1 && none.jobs >= 2
      }
      check("jobs of a closed span do not leak into its parent or later work") {
        attr.jobs.size == outer.jobs + inner.jobs + none.jobs
      }
      check("tasks and stages follow their job's span") {
        inner.tasks > 0 && inner.stages > 0 && outer.tasks > 0 &&
        attr.tasks.size == outer.tasks + inner.tasks + none.tasks
      }
      check("queries follow the span of their jobs") {
        inner.queries == 1 && outer.queries == 2
      }
      check("busy time is the union of the span's job intervals") {
        val js = attr.jobs.filter(_._1.span == ids("outer"))
        outer.busyMs <= js.map { case (j, end) => end - j.startMs }.sum && outer.busyMs >= 0
      }
    } finally spark.stop()
  }

  def main(args: Array[String]): Unit = {
    percentileRule()
    selfTime()
    attribution()
    println(if (failures == 0) "all benchmark self-tests passed" else s"$failures self-test(s) failed")
    if (failures > 0) sys.exit(1)
  }
}
