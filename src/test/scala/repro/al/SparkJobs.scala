package repro.al

import java.util.UUID
import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.Assertions.assert
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

/** Counts the Spark jobs a block of code starts. */
object SparkJobs {

  /** Runs `body` under a fresh job group and returns how many jobs that
    * group started. A fence job in a second group runs after `body`;
    * listener events arrive in order, so once the fence is seen every
    * job of `body` has been counted.
    */
  def count(spark: SparkSession)(body: => Unit): Int = {
    val sc = spark.sparkContext
    val counted = s"counted-${UUID.randomUUID()}"
    val fence = s"fence-${UUID.randomUUID()}"
    val groups = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
          .foreach(groups.add)
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(counted, "jobs being counted")
      body
      sc.setJobGroup(fence, "listener fence")
      sc.parallelize(Seq(1), 1).count()
      eventually(timeout(Span(30, Seconds))) { assert(groups.contains(fence)) }
      groups.toArray.count(_ == counted)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }
}
