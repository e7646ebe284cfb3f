package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd
import org.apache.spark.sql.perfbench.SparkInternals
import repro.al.{ALConfig, ActiveLearner}
import repro.ml.PoolVector
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One closed span: a timed call from the benchmark into a layer.
  * `codegen` counts the generated classes compiled while it was open,
  * children included.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long, codegen: Long) {
  def nanos: Long = endNs - startNs
}

object Span {
  /** Total length covered by a set of possibly overlapping intervals. */
  def unionLength(intervals: Seq[(Long, Long)]): Long = {
    var covered = 0L
    var reach = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      val from = math.max(s, reach)
      if (e > from) { covered += e - from; reach = e }
    }
    covered
  }

  /** Self time: the span's duration minus the part of that interval
    * its children cover.
    */
  def selfNanos(span: Span, children: Seq[Span]): Long =
    span.nanos - unionLength(children.map(c =>
      (math.max(c.startNs, span.startNs), math.min(c.endNs, span.endNs))))
}

/** Records nested spans on the driver thread. While a span is open its
  * id is the SparkContext local property [[Tracer.SpanKey]], so every
  * job the thread submits carries the span that was open when it
  * started, however late the listener sees the event.
  */
final class Tracer(sc: Option[SparkContext], codegenCount: () => Long) {
  private val closed = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long, Long)] = Nil // id, name, startNs, codegen at start
  private var nextId = 0
  private val counts = mutable.Map.empty[String, Double].withDefaultValue(0.0)

  private def tag(id: Option[Int]): Unit =
    sc.foreach(_.setLocalProperty(Tracer.SpanKey, id.map(_.toString).orNull))

  def span[T](name: String)(body: => T): T = {
    val id = nextId
    nextId += 1
    open = (id, name, System.nanoTime(), codegenCount()) :: open
    tag(Some(id))
    try body
    finally {
      val (_, _, start, cg0) = open.head
      open = open.tail
      val parent = open.headOption.map(_._1).getOrElse(-1)
      closed += Span(id, name, parent, start, System.nanoTime(), codegenCount() - cg0)
      tag(open.headOption.map(_._1))
    }
  }

  /** Adds to a named count (labels bought, clusters found, ...). */
  def count(key: String, v: Double): Unit = counts(key) += v

  def spans: Seq[Span] = closed.toSeq.sortBy(_.id)
  def counters: Map[String, Double] = counts.toMap
}

object Tracer {
  val SpanKey = "perfbench.span"

  /** Span id carried by a job's local properties, or -1. */
  def spanOf(props: java.util.Properties): Int =
    Option(props).flatMap(p => Option(p.getProperty(SpanKey))).map(_.toInt).getOrElse(-1)
}

final case class JobRec(jobId: Int, span: Int, executionId: Long, stageIds: Seq[Int], startMs: Long)
final case class TaskRec(stageId: Int, runMs: Long, cpuNs: Long, shuffleBytes: Long)
final case class QueryRec(executionId: Long, planNs: Long)

/** Collects job, stage, task and query events as they arrive;
  * attribution to spans happens afterwards in [[Attribution]].
  */
final class SparkRecorder extends SparkListener {
  val jobs = new ConcurrentLinkedQueue[JobRec]()
  val jobEnds = new java.util.concurrent.ConcurrentHashMap[Int, Long]()
  val stagesDone = new ConcurrentLinkedQueue[Int]()
  val tasks = new ConcurrentLinkedQueue[TaskRec]()
  val queries = new ConcurrentLinkedQueue[QueryRec]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val exec = Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .map(_.toLong).getOrElse(-1L)
    jobs.add(JobRec(e.jobId, Tracer.spanOf(e.properties), exec, e.stageIds, e.time))
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobEnds.put(e.jobId, e.time)
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    stagesDone.add(e.stageInfo.stageId)
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Option(e.taskMetrics).foreach { m =>
    tasks.add(TaskRec(e.stageId, m.executorRunTime, m.executorCpuTime, m.shuffleWriteMetrics.bytesWritten))
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case end: SparkListenerSQLExecutionEnd =>
      queries.add(QueryRec(end.executionId, SparkInternals.planNanos(end).getOrElse(0L)))
    case _ =>
  }

  def snapshot: Attribution = Attribution(
    jobs.asScala.toSeq.map(j => j -> Option(jobEnds.get(j.jobId)).map(_.longValue).getOrElse(j.startMs)),
    stagesDone.asScala.toSeq, tasks.asScala.toSeq, queries.asScala.toSeq)
}

object SparkRecorder {
  def attach(spark: SparkSession): SparkRecorder = {
    val r = new SparkRecorder
    spark.sparkContext.addSparkListener(r)
    r
  }
}

/** Spark work attributed to one span id. */
final case class SparkWork(
    jobs: Int, stages: Int, tasks: Int, queries: Int,
    busyMs: Long, planNs: Long, execRunMs: Long, execCpuNs: Long, shuffleBytes: Long)

/** Spark events, each attributed to the span open when its job started. */
final case class Attribution(
    jobs: Seq[(JobRec, Long)],
    stagesDone: Seq[Int],
    tasks: Seq[TaskRec],
    queries: Seq[QueryRec],
) {
  private val spanOfStage: Map[Int, Int] =
    jobs.sortBy(_._1.jobId).reverse.flatMap { case (j, _) => j.stageIds.map(_ -> j.span) }.toMap
  private val spanOfExecution: Map[Long, Int] =
    jobs.collect { case (j, _) if j.executionId >= 0 => j.executionId -> j.span }.toMap

  /** Work attributed to exactly these span ids. `busyMs` is the wall
    * time during which at least one of their jobs was running.
    */
  def of(spanIds: Set[Int]): SparkWork = {
    val js = jobs.filter(j => spanIds(j._1.span))
    val ts = tasks.filter(t => spanOfStage.get(t.stageId).exists(spanIds))
    val qs = queries.filter(q => spanOfExecution.get(q.executionId).exists(spanIds))
    SparkWork(
      jobs = js.size,
      stages = stagesDone.count(s => spanOfStage.get(s).exists(spanIds)),
      tasks = ts.size,
      queries = qs.size,
      busyMs = Span.unionLength(js.map { case (j, end) => (j.startMs, end) }),
      planNs = qs.map(_.planNs).sum,
      execRunMs = ts.map(_.runMs).sum,
      execCpuNs = ts.map(_.cpuNs).sum,
      shuffleBytes = ts.map(_.shuffleBytes).sum)
  }
}

/** Delegates to `inner` and times each `select` as an `al.select` span —
  * the hook MoRERConfig.al gives into `initRepository` and `solveCov`.
  */
final class TracingLearner(inner: ActiveLearner, @transient tracer: Tracer) extends ActiveLearner {
  def name: String = inner.name
  def select(
      spark: SparkSession,
      pool: DataFrame,
      budget: Int,
      cfg: ALConfig,
      idf: Map[Long, Double],
      seed: Long,
  ): IndexedSeq[PoolVector] = tracer.span("al.select") {
    val picked = inner.select(spark, pool, budget, cfg, idf, seed)
    tracer.count("al.labels", picked.size)
    picked
  }
}
