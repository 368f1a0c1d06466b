package pipebench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Paths
import java.security.MessageDigest
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.SparkSession

/** Command line of one benchmark run. */
final case class Args(
    workload: String,
    seconds: Int,
    trace: Boolean,
    seeds: Seeds,
    cores: Int,
    workDir: String,
    commit: String,
)

object Args {
  private val usage =
    "usage: PipeBench --workload NAME --seed N --seconds S --trace 0|1 --cores N --work-dir DIR " +
      "[--graph-seed N] [--partition-seed N] [--sampler-seed N] [--commit SHA]"

  /** `--seed n` shifts the study's seeds (graph 11, partition 7, sampler 13);
    * each can also be set on its own.
    */
  def parse(argv: Array[String]): Either[String, Args] = {
    if (argv.length % 2 != 0) return Left(usage)
    val m = argv.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    val known = Set("workload", "seed", "seconds", "trace", "cores", "work-dir",
      "graph-seed", "partition-seed", "sampler-seed", "commit")
    Try {
      require(m.keySet.subsetOf(known), s"unknown option: ${(m.keySet -- known).mkString(", ")}")
      val seed = m("seed").toLong
      def seedOf(opt: String, base: Long) = m.get(opt).map(_.toLong).getOrElse(base + seed)
      val a = Args(
        workload = m("workload"),
        seconds = m("seconds").toInt,
        trace = m("trace") match { case "1" => true; case "0" => false },
        seeds = Seeds(seedOf("graph-seed", 11), seedOf("partition-seed", 7), seedOf("sampler-seed", 13)),
        cores = m("cores").toInt,
        workDir = m("work-dir"),
        commit = m.getOrElse("commit", "unknown"),
      )
      require(a.seconds >= 1, "--seconds must be at least 1")
      require(a.cores >= 1 && a.cores <= Runtime.getRuntime.availableProcessors, "--cores must be in 1..nproc")
      a
    }.toEither.left.map(e => s"${e.getMessage}\n$usage")
  }
}

/** Result of one cell in one pass. */
final case class CellOut(id: String, seconds: Double, digest: String, counts: Map[String, Long], error: Option[String])

/** Result of one pass over all of a workload's cells. */
final case class PassOut(seconds: Double, cells: Seq[CellOut], layers: Map[String, Double]) {
  def counts: Map[String, Long] = cells.flatMap(_.counts).groupMapReduce(_._1)(_._2)(_ + _)
}

/** Pipeline benchmark: drives one workload's (graph, partitioner, k) cells
  * through the repro layers, measures wall-clock, checks every cell's
  * outputs against a driver recomputation, and prints one JSON result line.
  */
object PipeBench {

  /** Set-up runs this many times; `setup_s` takes the median. */
  val SetupReps = 3

  /** `spark.range` splits into this many partitions, and the generated
    * graphs depend on the split, so it is pinned for every core count.
    */
  val RangePartitions = 4

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear interpolation between closest ranks. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  private def sha256(lines: Seq[String]): String =
    MessageDigest.getInstance("SHA-256")
      .digest(lines.mkString("\n").getBytes(StandardCharsets.UTF_8))
      .map(b => f"$b%02x").mkString

  private def json(m: Map[String, Any]): String = m.toSeq.sortBy(_._1).map {
    case (k, v: String) => s""""$k": "$v""""
    case (k, v: Seq[_]) => s""""$k": ${v.mkString("[", ", ", "]")}"""
    case (k, v: Map[_, _]) => s""""$k": ${json(v.asInstanceOf[Map[String, Any]])}"""
    case (k, v) => s""""$k": $v"""
  }.mkString("{", ", ", "}")

  def session(a: Args): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${a.cores}]")
      .appName("pipebench")
      .config("spark.default.parallelism", RangePartitions.toLong)
      .config("spark.sql.shuffle.partitions", 8L)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(a.workDir, "spark-local").toString)
      .config("spark.sql.warehouse.dir", Paths.get(a.workDir, "warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def runPass(wl: Workload, p: Pipeline, in: Inputs, traced: Boolean): PassOut = {
    if (traced) p.tr.begin()
    var checkNs = 0L
    val t0 = System.nanoTime()
    val cells = wl.cells(p, in).map { cell =>
      val c0 = System.nanoTime()
      val res = Try(cell.run())
      val c1 = System.nanoTime()
      val out = res match {
        case Failure(e) => CellOut(cell.id, (c1 - c0) / 1e9, "", Map.empty, Some(s"threw $e"))
        case Success(r) =>
          val err = Try(r.check()) match {
            case Success(e) => e
            case Failure(e) => Some(s"check threw $e")
          }
          CellOut(cell.id, (c1 - c0) / 1e9, r.digest, r.counts, err)
      }
      checkNs += System.nanoTime() - c1
      out
    }
    val seconds = (System.nanoTime() - t0 - checkNs) / 1e9
    PassOut(seconds, cells, if (traced) p.tr.end() else Map.empty)
  }

  def main(argv: Array[String]): Unit = {
    val a = Args.parse(argv) match {
      case Right(a) => a
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val wl = Workloads.byName(a.workload).getOrElse {
      System.err.println(s"unknown workload ${a.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = session(a)
    val sessionS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val p = new Pipeline(spark, new Tracer(spark.sparkContext), a.seeds)

    // Set-up, repeated; every repetition starts from an empty Spark cache.
    val reps = (1 to SetupReps).map { r =>
      spark.catalog.clearCache()
      if (a.trace) p.tr.begin()
      val t0 = System.nanoTime()
      val graphs = wl.graphKeys.map(key => key -> p.buildGraph(key, s"setup$r")).toMap
      val in = Inputs(graphs, wl.fixed(p, graphs, s"setup$r"))
      val secs = (System.nanoTime() - t0) / 1e9
      (secs, in, if (a.trace) p.tr.end() else Map.empty[String, Double])
    }
    val in = reps.last._2
    val setupS = sessionS + median(reps.map(_._1))

    // One untimed warm-up pass, then passes until the time is spent. A
    // traced run alternates untraced and traced passes, so that the same
    // run gives the tracing overhead.
    val warm = runPass(wl, p, in, traced = false)
    val deadline = System.nanoTime() + a.seconds * 1000000000L
    val timed = Vector.newBuilder[PassOut]
    var i = 0
    while (i < 2 || System.nanoTime() < deadline) {
      timed += runPass(wl, p, in, traced = a.trace && i % 2 == 0)
      i += 1
    }
    val passes = timed.result()

    System.gc(); System.gc()
    val heap = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

    val all = warm +: passes
    val reference = warm.cells.map(c => c.id -> c.digest).toMap
    val cells = all.flatMap(_.cells)
    val failures = cells.filter(c => c.error.nonEmpty || c.digest != reference(c.id))
    failures.take(5).foreach { c =>
      System.err.println(s"FAILED ${c.id}: ${c.error.getOrElse("digest differs from the warm-up pass")}")
    }
    val digest = sha256(warm.cells.map(_.digest))
    // One time per cell: its median over the timed passes.
    val cellSeconds = passes.flatMap(_.cells).groupMap(_.id)(_.seconds).values.map(median).toSeq

    val env = Map[String, Any](
      "workload" -> wl.name,
      "master" -> spark.sparkContext.master,
      "range_partitions" -> RangePartitions,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "xmx_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.vm.version")}",
      "spark" -> spark.version,
      "commit" -> a.commit,
      "seeds" -> Map("graph" -> a.seeds.graph, "partition" -> a.seeds.partition, "sampler" -> a.seeds.sampler),
      "edge_checksums" -> in.graphs.map { case (k, g) => k -> g.edgeChecksum },
      "session_seconds" -> sessionS,
      "setup_seconds" -> reps.map(_._1),
      "warmup_seconds" -> warm.seconds,
      "pass_seconds" -> passes.map(_.seconds),
      "cells" -> cellSeconds.size,
      "digest" -> digest,
    )
    println(s"pipebench env ${json(env)}")

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) Seq(
        ("pass_s", median(passes.map(_.seconds)), "s"),
        ("cell_p50_s", quantile(cellSeconds, 0.5), "s"),
        ("cell_p90_s", quantile(cellSeconds, 0.9), "s"),
        ("setup_s", setupS, "s"),
        ("retained_heap_mb", heap, "MB"),
        ("ok_frac", 1.0 - failures.size.toDouble / cells.size, "1"),
      )
      else layerMetrics(passes, reps.map(_._3), in)

    if (a.trace) p.tr.write(Paths.get(a.workDir, s"trace-${wl.name}-${a.seeds.graph}.jsonl"))
    metrics.foreach { case (n, v, u) => println(f"pipebench $n%-28s $v%14.6f $u") }
    val body = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": ${failures.isEmpty}, "attempted": ${cells.size}, "failed": ${failures.size}, "metrics": {$body}}""")
    spark.stop()
  }

  /** Per-layer metrics of a traced run: medians over the traced passes,
    * graph metrics over the set-up repetitions.
    */
  def layerMetrics(passes: Seq[PassOut], setups: Seq[Map[String, Double]], in: Inputs): Seq[(String, Double, String)] = {
    val traced = passes.filter(_.layers.nonEmpty)
    val untraced = passes.filter(_.layers.isEmpty)
    def pass(key: String, scale: Double = 1.0): Double = median(traced.map(_.layers.getOrElse(key, 0.0) * scale))
    def setup(key: String): Double = median(setups.map(_.getOrElse(key, 0.0)))
    def count(key: String): Double = median(traced.map(_.counts.getOrElse(key, 0L).toDouble))
    val mb = 1.0 / 1048576
    val graphs = in.graphs.values.toSeq
    Seq(
      ("metrics.edge_s", pass("metrics.edge.s"), "s"),
      ("metrics.vertex_s", pass("metrics.vertex.s"), "s"),
      ("metrics.spark_jobs", pass("metrics.spark_jobs"), "count"),
      ("metrics.spark_stages", pass("metrics.spark_stages"), "count"),
      ("metrics.spark_tasks", pass("metrics.spark_tasks"), "count"),
      ("metrics.task_run_s", pass("metrics.task_run_ms", 1e-3), "s"),
      ("metrics.shuffle_mb", pass("metrics.shuffle_bytes", mb), "MB"),
      ("distdgl.sample_s", pass("distdgl.sample.s"), "s"),
      ("distdgl.alloc_mb", pass("distdgl.sample.alloc_bytes", mb), "MB"),
      ("distdgl.sampled_edges", count("distdgl.sampled_edges"), "count"),
      ("distdgl.input_verts", count("distdgl.input_verts"), "count"),
      ("distdgl.remote_input_verts", count("distdgl.remote_input_verts"), "count"),
      ("distdgl.sim_s", pass("distdgl.sim.s"), "s"),
      ("partition.run_s", pass("partition.run.s"), "s"),
      ("partition.ops", count("partition.ops"), "count"),
      ("partition.bridge_s", pass("partition.bridge.s"), "s"),
      ("partition.alloc_mb", median(traced.map(t =>
        (t.layers.getOrElse("partition.run.alloc_bytes", 0.0) + t.layers.getOrElse("partition.bridge.alloc_bytes", 0.0)) * mb)), "MB"),
      ("partition.spark_jobs", pass("partition.spark_jobs"), "count"),
      ("graph.gen_s", setup("graph.gen.s"), "s"),
      ("graph.compact_s", setup("graph.compact.s"), "s"),
      ("graph.mask_s", setup("graph.mask.s"), "s"),
      ("graph.spark_jobs", setup("graph.spark_jobs"), "count"),
      ("graph.edges", graphs.map(_.cg.numEdges.toDouble).sum, "count"),
      ("graph.edge_shortfall", graphs.map(_.edgeShortfall.toDouble).sum, "count"),
      ("distgnn.sim_s", pass("distgnn.sim.s"), "s"),
      ("amortize.s", pass("amortize.s"), "s"),
      ("jvm.gc_s", pass("jvm.gc_s"), "s"),
      ("trace.overhead_s", median(traced.map(_.seconds)) - median(untraced.map(_.seconds)), "s"),
      ("trace.span_cover", median(traced.map(t => t.layers.getOrElse("span.covered_s", 0.0) / t.seconds)), "1"),
    )
  }
}
