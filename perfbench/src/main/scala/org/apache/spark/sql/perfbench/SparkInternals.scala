package org.apache.spark.sql.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** The two pieces of Spark state the tracer reads that Spark keeps
  * package-private.
  */
object SparkInternals {
  /** Blocks until every event posted so far has reached every listener. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Analysis + optimization + planning time of the query that ended,
    * when the event carries its QueryExecution.
    */
  def planNanos(e: SparkListenerSQLExecutionEnd): Option[Long] =
    Option(e.qe).map(_.tracker.phases.values.map(p => (p.endTimeMs - p.startTimeMs) * 1000000L).sum)
}
