package repro

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.concurrent.TrieMap

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so that the test-only
  * `SparkSampler` joins run as shuffles even on the small test graphs, as
  * they would on graphs too large to broadcast. The setting does not touch
  * the metrics, which have no join and no exchange: each pass is map tasks
  * merged on the driver, and `vertexCutQuality` broadcasts its partition
  * book itself and scans the graph's edge blocks (`Graph.blocks`, slices
  * of the driver CSR). `sparkWork` counts the Spark jobs and tasks a call
  * starts, for the tests that pin them.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Runs `body` under a listener that sees only the jobs this thread
    * starts, and returns the task count of each of those jobs, in job
    * order, with the shuffle records their tasks wrote.
    */
  protected def sparkWork(body: => Unit): (Seq[Int], Long) = {
    val sc = spark.sparkContext
    val tag = "spark-spec-work"
    val jobOfStage = TrieMap.empty[Int, Int]
    val tasks = TrieMap.empty[Int, Int]
    val records = new AtomicLong
    val counter = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(tag) != null)) {
          tasks.put(e.jobId, 0)
          e.stageIds.foreach(jobOfStage.put(_, e.jobId))
        }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        jobOfStage.get(e.stageId).foreach { job =>
          tasks.put(job, tasks(job) + 1)
          records.addAndGet(e.taskMetrics.shuffleWriteMetrics.recordsWritten)
        }
    }
    sc.addSparkListener(counter)
    sc.setLocalProperty(tag, "1")
    try body
    finally {
      sc.setLocalProperty(tag, null)
      ListenerBusDrain(sc)
      sc.removeSparkListener(counter)
    }
    (tasks.toSeq.sortBy(_._1).map(_._2), records.get)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
