package pipebench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.{BusDrain, SparkContext}
import org.apache.spark.scheduler._

/** One layer call. `parent` is the cell (or set-up repetition) that made it. */
final case class Span(layer: String, parent: String, startNs: Long, endNs: Long)

/** Spark work attributed to the pipeline module that submitted it. The
  * tracer names the running module in a job-local property; every job,
  * stage and task inherits it, so attribution does not depend on when the
  * asynchronous listener event arrives.
  */
final class LayerListener extends SparkListener {
  private val stageModule = mutable.Map.empty[Int, String]
  private val counts = mutable.Map.empty[String, Long].withDefaultValue(0L)

  private def add(key: String, n: Long): Unit = synchronized { counts(key) += n }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val module = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.ModuleKey))).getOrElse("other")
    synchronized { e.stageInfos.foreach(s => stageModule(s.stageId) = module) }
    add(s"$module.spark_jobs", 1)
  }

  private def moduleOf(stageId: Int): String = synchronized { stageModule.getOrElse(stageId, "other") }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    add(s"${moduleOf(e.stageInfo.stageId)}.spark_stages", 1)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val module = moduleOf(e.stageId)
    add(s"$module.spark_tasks", 1)
    val m = e.taskMetrics
    if (m != null) {
      add(s"$module.task_run_ms", m.executorRunTime)
      add(s"$module.shuffle_bytes", m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def snapshot(): Map[String, Long] = synchronized { counts.toMap }
}

/** Records a span around every layer call while enabled, plus the bytes the
  * calling thread allocated inside it. Spans stay in memory until [[write]].
  * Disabled, [[apply]] only runs the body, so untraced passes pay nothing.
  */
final class Tracer(sc: SparkContext) {
  private val threadMx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val listener = new LayerListener
  private val alloc = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private var enabled = false
  private var from = 0
  private var sparkAtStart = Map.empty[String, Long]
  private var gcAtStart = 0L

  val spans = mutable.ArrayBuffer.empty[Span]

  def apply[A](layer: String, parent: String)(body: => A): A =
    if (!enabled) body
    else {
      sc.setLocalProperty(Tracer.ModuleKey, layer.takeWhile(_ != '.'))
      val a0 = threadMx.getCurrentThreadAllocatedBytes
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        alloc(layer) += threadMx.getCurrentThreadAllocatedBytes - a0
        spans += Span(layer, parent, t0, t1)
        sc.setLocalProperty(Tracer.ModuleKey, null)
      }
    }

  private def gcMs: Long = gcBeans.map(_.getCollectionTime).filter(_ >= 0).sum

  /** Start a traced interval (a pass or a set-up repetition). */
  def begin(): Unit = {
    sc.addSparkListener(listener)
    BusDrain(sc)
    enabled = true
    from = spans.size
    alloc.clear()
    sparkAtStart = listener.snapshot()
    gcAtStart = gcMs
  }

  /** End the interval: per-layer seconds and allocated bytes, Spark counters
    * per module, and GC time, all for this interval only.
    */
  def end(): Map[String, Double] = {
    enabled = false
    BusDrain(sc)
    sc.removeSparkListener(listener)
    val spark = listener.snapshot().map { case (k, v) => k -> (v - sparkAtStart.getOrElse(k, 0L)).toDouble }
    val secs = spans.drop(from).groupMapReduce(_.layer)(s => (s.endNs - s.startNs) / 1e9)(_ + _)
    val covered = spans.drop(from).map(s => (s.endNs - s.startNs) / 1e9).sum
    spark ++ secs.map { case (l, s) => s"$l.s" -> s } ++
      alloc.map { case (l, b) => s"$l.alloc_bytes" -> b.toDouble } +
      ("span.covered_s" -> covered) +
      ("jvm.gc_s" -> (gcMs - gcAtStart) / 1e3)
  }

  /** Write every recorded span as one JSON object per line. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val lines = spans.map { s =>
      s"""{"layer":"${s.layer}","parent":"${s.parent}","start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }
    Files.write(path, lines.asJava, StandardCharsets.UTF_8)
  }
}

object Tracer {
  val ModuleKey = "pipebench.module"
}
