package repro.al

import java.util.UUID
import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.scalatest.Assertions.assert
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

/** Counts the Spark jobs and SQL queries a block of code starts. */
object SparkJobs {

  /** Runs `body` under a fresh job group and returns how many jobs that
    * group started.
    */
  def count(spark: SparkSession)(body: => Unit): Int = rdds(spark)(body).size

  /** Runs `body` under a fresh job group and returns, for each job that
    * group started, in order, the id of the RDD the job runs on: the
    * RDD of its result stage (the job's last stage), which is the first
    * RDD the stage lists. A job over no partitions has no stage and reads
    * -1.
    */
  def rdds(spark: SparkSession)(body: => Unit): Seq[Int] = {
    val (counted, events) = observe(spark)(body)
    events.collect { case Job(`counted`, rdd) => rdd }
  }

  /** Runs `body` and returns how many SQL queries (executions) started
    * while it ran.
    */
  def queries(spark: SparkSession)(body: => Unit): Int =
    observe(spark)(body)._2.count(_ == Query)

  private sealed trait Event
  /** A job start: the job's group and the RDD it runs on. */
  private final case class Job(group: String, rdd: Int) extends Event
  private case object Query extends Event

  /** Runs `body` under a fresh job group between two fence jobs and
    * returns that group with the events seen between the fences, in
    * order: a `Job` for each job start, or `Query` for each SQL
    * execution start. Listener events arrive in order, so once the second
    * fence is seen every event of `body` has been recorded, and none from
    * before the first fence is.
    */
  private def observe(spark: SparkSession)(body: => Unit): (String, Seq[Event]) = {
    val sc = spark.sparkContext
    val counted = s"counted-${UUID.randomUUID()}"
    val before = s"fence-${UUID.randomUUID()}"
    val after = s"fence-${UUID.randomUUID()}"
    val events = new ConcurrentLinkedQueue[Event]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        val rdd = e.stageInfos.maxByOption(_.stageId).fold(-1)(_.rddInfos.head.id)
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
          .foreach(group => events.add(Job(group, rdd)))
      }
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => events.add(Query)
        case _                                 =>
      }
    }
    def fence(group: String): Unit = {
      sc.setJobGroup(group, "listener fence")
      sc.parallelize(Seq(1), 1).count()
    }
    def fenceAt(group: String, seen: Seq[Event]): Int =
      seen.indexWhere { case Job(g, _) => g == group; case _ => false }
    sc.addSparkListener(listener)
    try {
      fence(before)
      sc.setJobGroup(counted, "jobs being counted")
      body
      fence(after)
      eventually(timeout(Span(30, Seconds))) {
        assert(fenceAt(after, events.toArray(Array.empty[Event]).toSeq) >= 0)
      }
      val seen = events.toArray(Array.empty[Event]).toSeq
      (counted, seen.slice(fenceAt(before, seen) + 1, fenceAt(after, seen)))
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }
}
