package repro.partition

import java.util.Arrays.copyOfRange
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{CompactGraph, Graph}

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

/** Per-partition loads, shared by the stateful edge partitioners. */
object Loads {

  /** The first part with the least load. */
  def leastLoaded(load: Array[Long]): Int = {
    var best = 0
    var p = 1
    while (p < load.length) { if (load(p) < load(best)) best = p; p += 1 }
    best
  }

  /** The most edges a part takes before it spills: 10% over an even share. */
  def edgeCap(numEdges: Int, k: Int): Long = math.ceil(1.1 * numEdges.toDouble / k).toLong

  /** `p`, or the least-loaded part once `p` holds `cap` edges. */
  def spill(load: Array[Long], cap: Long, p: Int): Int =
    if (load(p) < cap) p else leastLoaded(load)
}

/** Deterministic seeded stream orders for the streaming partitioners. */
object StreamOrder {
  def edgeOrder(n: Int, seed: Long): Array[Int] = {
    val order = Array.tabulate(n)(identity)
    val rnd = new scala.util.Random(seed)
    var i = n - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = order(i); order(i) = order(j); order(j) = t
      i -= 1
    }
    order
  }
}

/** Driver assignment → DataFrame bridge: the partition-quality metrics
  * consume assignments as DataFrames. The training simulators do not; they
  * read the metrics' `EdgeCutQuality` and the sampler's `WorkerSample`.
  *
  * The driver never builds a row object. It cuts its primitive arrays into
  * the contiguous slices of `Graph.slices`, as `Graph.blocks` cuts the CSR,
  * ships one slice per partition, and the executors expand each slice into
  * rows.
  */
object PartitionBridge {

  /** `(src, dst, part)` — one row per edge, driver assignment attached. */
  def edgeDf(spark: SparkSession, g: CompactGraph, assign: Array[Int]): DataFrame = {
    import spark.implicits._
    val slices = Graph.slices(spark, g.numEdges).map { case (from, until) =>
      (copyOfRange(g.src, from, until), copyOfRange(g.dst, from, until), copyOfRange(assign, from, until))
    }
    spark.sparkContext.parallelize(slices, slices.length)
      .flatMap { case (s, d, p) => Iterator.tabulate(s.length)(i => (s(i).toLong, d(i).toLong, p(i))) }
      .toDF("src", "dst", "part")
  }

  /** `(vid, part)` — one row per vertex. */
  def vertexDf(spark: SparkSession, assign: Array[Int]): DataFrame = {
    import spark.implicits._
    val slices = Graph.slices(spark, assign.length).map { case (from, until) =>
      (from, copyOfRange(assign, from, until))
    }
    spark.sparkContext.parallelize(slices, slices.length)
      .flatMap { case (from, p) => Iterator.tabulate(p.length)(i => ((from + i).toLong, p(i))) }
      .toDF("vid", "part")
  }
}
