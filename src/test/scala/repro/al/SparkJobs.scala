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
  def count(spark: SparkSession)(body: => Unit): Int = {
    val (counted, events) = observe(spark)(body)
    events.count(_ == counted)
  }

  /** Runs `body` and returns how many SQL queries (executions) started
    * while it ran.
    */
  def queries(spark: SparkSession)(body: => Unit): Int =
    observe(spark)(body)._2.count(_ == Query)

  private val Query = "sql query"

  /** Runs `body` under a fresh job group between two fence jobs and
    * returns that group with the events seen between the fences, in
    * order: the job group of each job start, or `Query` for each SQL
    * execution start. Listener events arrive in order, so once the second
    * fence is seen every event of `body` has been recorded, and none from
    * before the first fence is.
    */
  private def observe(spark: SparkSession)(body: => Unit): (String, Seq[String]) = {
    val sc = spark.sparkContext
    val counted = s"counted-${UUID.randomUUID()}"
    val before = s"fence-${UUID.randomUUID()}"
    val after = s"fence-${UUID.randomUUID()}"
    val events = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
          .foreach(events.add)
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => events.add(Query)
        case _                                 =>
      }
    }
    def fence(group: String): Unit = {
      sc.setJobGroup(group, "listener fence")
      sc.parallelize(Seq(1), 1).count()
    }
    sc.addSparkListener(listener)
    try {
      fence(before)
      sc.setJobGroup(counted, "jobs being counted")
      body
      fence(after)
      eventually(timeout(Span(30, Seconds))) { assert(events.contains(after)) }
      val seen = events.toArray(Array.empty[String]).toSeq
      (counted, seen.slice(seen.indexOf(before) + 1, seen.indexOf(after)))
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }
}
