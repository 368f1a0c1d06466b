package repro.partition

import java.util.Arrays.copyOfRange
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.CompactGraph

/** Work counters accumulated while a partitioner runs. The amortization
  * tables (paper Tables 4/5) need partitioning *time*; we count the actual
  * operations the algorithm performed and let
  * [[repro.gnn.CostModel.partitioningTime]] convert them to simulated
  * seconds on the paper's hardware profile (see DESIGN.md §2).
  *
  * @param edgesStreamed sequential edge/vertex visits (cheap per-item work)
  * @param scoreEvals    per-(item, partition) score evaluations (HDRF, LDG, …)
  * @param heavyOps      in-memory ops: matching, refinement moves scanned,
  *                      expansion steps, BFS visits
  * @param passes        full passes over the graph
  */
final case class PartitionCost(
    edgesStreamed: Long = 0,
    scoreEvals: Long = 0,
    heavyOps: Long = 0,
    passes: Int = 1,
)

/** Result of edge partitioning: `part(i)` is the partition of edge i (the
  * i-th entry of the graph's `src`/`dst` arrays).
  */
final case class EdgePartitionResult(part: Array[Int], cost: PartitionCost)

/** Result of vertex partitioning: `part(v)` is the partition of vertex v. */
final case class VertexPartitionResult(part: Array[Int], cost: PartitionCost)

/** Vertex-cut partitioner: assigns every edge to exactly one partition. */
trait EdgePartitioner {
  def name: String

  /** Category as in the paper's Table 2. */
  def category: String
  def partition(g: CompactGraph, k: Int, seed: Long): EdgePartitionResult
}

/** Edge-cut partitioner: assigns every vertex to exactly one partition.
  * `trainMask(v)` marks training vertices (used by ByteGNN-style
  * partitioners; others ignore it).
  */
trait VertexPartitioner {
  def name: String
  def category: String
  def partition(
      g: CompactGraph,
      k: Int,
      trainMask: Array[Boolean],
      seed: Long,
  ): VertexPartitionResult
}

/** Deterministic arithmetic hashes shared by the partitioners. Multipliers
  * are small enough that products stay far below Long overflow.
  */
object Mix {
  def edge(src: Long, dst: Long, seed: Long, k: Int): Int =
    (((src * 1000003L + dst * 19349663L + seed * 7919L) % k + k) % k).toInt

  def vertex(v: Long, seed: Long, k: Int): Int =
    (((v * 1000003L + seed * 7919L) % k + k) % k).toInt
}

/** Driver assignment → DataFrame bridge: the partition-quality metrics
  * consume assignments as DataFrames. The training simulators do not; they
  * read the metrics' `EdgeCutQuality` and the sampler's `WorkerSample`.
  *
  * The driver never builds a row object. It cuts its primitive arrays into
  * `defaultParallelism` contiguous slices, ships one slice per partition,
  * and the executors expand each slice into rows.
  */
object PartitionBridge {

  /** `(src, dst, part)` — one row per edge, driver assignment attached. */
  def edgeDf(spark: SparkSession, g: CompactGraph, assign: Array[Int]): DataFrame = {
    import spark.implicits._
    val slices = bounds(spark, g.numEdges).map { case (from, until) =>
      (copyOfRange(g.src, from, until), copyOfRange(g.dst, from, until), copyOfRange(assign, from, until))
    }
    spark.sparkContext.parallelize(slices, slices.length)
      .flatMap { case (s, d, p) => Iterator.tabulate(s.length)(i => (s(i).toLong, d(i).toLong, p(i))) }
      .toDF("src", "dst", "part")
  }

  /** `(vid, part)` — one row per vertex. */
  def vertexDf(spark: SparkSession, assign: Array[Int]): DataFrame = {
    import spark.implicits._
    val slices = bounds(spark, assign.length).map { case (from, until) =>
      (from, copyOfRange(assign, from, until))
    }
    spark.sparkContext.parallelize(slices, slices.length)
      .flatMap { case (from, p) => Iterator.tabulate(p.length)(i => ((from + i).toLong, p(i))) }
      .toDF("vid", "part")
  }

  /** `[from, until)` of each of `defaultParallelism` contiguous slices of `n` rows. */
  private def bounds(spark: SparkSession, n: Int): Seq[(Int, Int)] = {
    val slices = spark.sparkContext.defaultParallelism
    (0 until slices).map(i => ((i.toLong * n / slices).toInt, ((i + 1L) * n / slices).toInt))
  }
}
