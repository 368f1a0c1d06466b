package repro.harness

import scala.collection.concurrent.TrieMap
import org.apache.spark.sql.SparkSession
import repro.distdgl.{DistDglEpoch, DistDglSim, FastSampler, WorkerSample}
import repro.distgnn.{DistGnnEpoch, DistGnnSim}
import repro.gnn.{CostModel, GnnParams}
import repro.graph._
import repro.metrics._
import repro.partition._

/** One paper-graph analog: the [[Graph]], its driver CSR and its training
  * mask ([[GraphOps.trainMask]]). Spark holds no copy of it.
  */
final case class StudyGraph(g: Graph, cg: CompactGraph, mask: Array[Boolean]) {
  val trainVerts: Long = mask.count(identity).toLong
}

/** One evaluated edge partitioning: quality + simulated partitioning time. */
final case class EdgeRun(quality: EdgeCutQuality, partTime: Double)

/** One evaluated vertex partitioning. */
final case class VertexRun(quality: VertexCutQuality, partTime: Double, assign: Array[Int])

/** The study's pipeline over one SparkSession: graph analog → partition →
  * quality metrics → sampled mini-batches → simulated epochs. It is the only
  * caller of each layer. The analogs, the partitionings with their quality
  * and the sampled steps are memoized per instance, so the tables and shape
  * benches that share a `Study` compute each (graph, partitioner, k) once,
  * and a new `Study` starts from nothing.
  */
final class Study(spark: SparkSession) {
  import Study._

  private val graphs = TrieMap.empty[String, StudyGraph]
  private val edgeRuns = TrieMap.empty[(String, String, Int), EdgeRun]
  private val vertexRuns = TrieMap.empty[(String, String, Int), VertexRun]
  private val sampleSteps = TrieMap.empty[(String, String, Int, Int, Int), Seq[WorkerSample]]

  def graph(key: String): StudyGraph =
    graphs.getOrElseUpdate(key, {
      val g = Datasets.load(spark, key)
      StudyGraph(g, g.compact(), GraphOps.trainMask(g, spark))
    })

  /** Partition `key` with the named edge partitioner into k parts and
    * measure quality with Spark.
    */
  def edgeRun(key: String, algo: String, k: Int): EdgeRun =
    edgeRuns.getOrElseUpdate((key, algo, k), {
      val sg = graph(key)
      val res = Partitioners.edgePartitioner(algo).partition(sg.cg, k, seed = 7)
      val q = PartitionMetrics.edgeCutQuality(sg.g, PartitionBridge.edgeDf(spark, sg.cg, res.part), k)
      EdgeRun(q, CostModel.partitioningTime(algo, res.cost))
    })

  /** Partition `key` with the named vertex partitioner into k parts and
    * measure quality with Spark.
    */
  def vertexRun(key: String, algo: String, k: Int): VertexRun =
    vertexRuns.getOrElseUpdate((key, algo, k), {
      val sg = graph(key)
      val res = Partitioners.vertexPartitioner(algo).partition(sg.cg, k, sg.mask, seed = 7)
      val q = PartitionMetrics.vertexCutQuality(sg.g, spark, PartitionBridge.vertexDf(spark, res.part), k)
      VertexRun(q, CostModel.partitioningTime(algo, res.cost), res.part)
    })

  /** One sampled synchronous step for every worker, over the `algo`
    * partitioning of `key` into k parts.
    */
  def samples(key: String, algo: String, k: Int, layers: Int, gbs: Int = defaultGbs): Seq[WorkerSample] =
    sampleSteps.getOrElseUpdate((key, algo, k, layers, gbs), {
      val sg = graph(key)
      val fanouts = GnnParams(layers = layers).fanouts
      FastSampler.sampleStep(sg.cg, vertexRun(key, algo, k).assign, sg.mask, k, fanouts, gbs, seed = 13)
    })

  /** DistGNN (full-batch) epoch over the `algo` edge partitioning. */
  def gnnEpoch(key: String, algo: String, k: Int, p: GnnParams): DistGnnEpoch =
    DistGnnSim.epoch(edgeRun(key, algo, k).quality, p)

  /** DistDGL (mini-batch) epoch from the sampled step of the `algo` vertex
    * partitioning.
    */
  def dglEpoch(key: String, algo: String, k: Int, p: GnnParams, gbs: Int = defaultGbs): DistDglEpoch =
    DistDglSim.epoch(samples(key, algo, k, p.layers, gbs), p, k, gbs, graph(key).trainVerts)
}

object Study {

  /** Machine counts studied in the paper. */
  val machineCounts: Seq[Int] = Seq(4, 8, 16, 32)

  /** Global batch size analog (paper: 1024 at ~1000× our vertex counts). */
  val defaultGbs: Int = 64
}
