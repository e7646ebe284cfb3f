package repro.erdata

import org.apache.spark.{SparkException, TaskContext}
import repro.SparkSpec
import repro.al.SparkJobs

class PartitionJobSpec extends SparkSpec {

  test("run returns each partition's result in partition order") {
    val rdd = spark.sparkContext.parallelize(1 to 100, 7)
    var got = Array.empty[Vector[Int]]
    val jobs = SparkJobs.count(spark) {
      got = PartitionJob.run(rdd) { it =>
        // Later partitions finish first, so completion order is not partition order.
        Thread.sleep(20L * (7 - TaskContext.getPartitionId()))
        it.toVector
      }
    }
    assert(jobs == 1)
    assert(got.toSeq == rdd.glom().collect().toSeq.map(_.toVector))
  }

  test("an RDD without partitions returns nothing and starts no job") {
    var got = Array(1)
    assert(SparkJobs.count(spark) { got = PartitionJob.run(spark.sparkContext.emptyRDD[Int])(_.sum) } == 0)
    assert(got.isEmpty)
  }

  test("an exception in a task reaches the caller as a SparkException with its cause") {
    val e = intercept[SparkException] {
      PartitionJob.run(spark.sparkContext.parallelize(1 to 4, 2)) { it =>
        if (TaskContext.getPartitionId() == 1) throw new IllegalStateException("partition 1 failed")
        it.sum
      }
    }
    assert(e.getCause.isInstanceOf[IllegalStateException])
    assert(e.getCause.getMessage == "partition 1 failed")
  }
}
