package pipebench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.amortize.Amortization
import repro.distdgl.{DistDglSim, FastSampler, WorkerSample}
import repro.distgnn.DistGnnSim
import repro.gnn.{CostModel, GnnConfig, GnnParams}
import repro.graph.{CompactGraph, Datasets, Graph, GraphOps}
import repro.harness.Tables
import repro.metrics.{EdgeCutQuality, PartitionMetrics}
import repro.partition.{PartitionBridge, PartitionCost, Partitioners}

/** Seeds of the three random choices in the pipeline. */
final case class Seeds(graph: Long, partition: Long, sampler: Long)

/** One graph analog, ready for partitioning. */
final case class GraphIn(key: String, g: Graph, cg: CompactGraph, mask: Array[Boolean]) {
  lazy val totalTrain: Long = mask.count(identity).toLong

  /** Order-independent edge checksum: Σ (src·|V| + dst), wrapping. */
  lazy val edgeChecksum: Long = {
    var s = 0L; var i = 0
    while (i < cg.numEdges) { s += cg.src(i).toLong * cg.numVertices + cg.dst(i); i += 1 }
    s
  }

  /** Target |E| of the analog minus the edges generated. */
  def edgeShortfall: Long = math.max(32L, Datasets.spec(key).baseE) - cg.numEdges
}

/** A vertex assignment with its simulated partitioning time. */
final case class Assignment(assign: Array[Int], partTime: Double, cost: PartitionCost)

/** The workload's inputs, built once per set-up repetition. */
final case class Inputs(graphs: Map[String, GraphIn], fixed: Map[(String, String), Assignment])

/** What a cell produced: its digest line, its counters, and a check of its
  * outputs that runs after the cell's timer has stopped.
  */
final case class CellResult(digest: String, counts: Map[String, Long], check: () => Option[String])

/** One (graph, partitioner, k) cell of a pass; `run` is the timed part. */
final case class Cell(id: String, run: () => CellResult)

/** The pipeline's layer calls, each under its own span, in the order
  * `harness.Experiments` and `harness.Tables` make them. The memoizing
  * `Experiments` caches are bypassed: they cannot be cleared, so a second
  * pass would read cached results instead of doing the work.
  */
final class Pipeline(val spark: SparkSession, val tr: Tracer, val seeds: Seeds) {

  def buildGraph(key: String, parent: String): GraphIn = {
    val g = tr("graph.gen", parent) {
      val g = Datasets.load(spark, key, seed = seeds.graph)
      g.edges.cache().count()
      g
    }
    val cg = tr("graph.compact", parent)(g.compact())
    val mask = tr("graph.mask", parent)(GraphOps.trainMask(g, spark))
    GraphIn(key, g, cg, mask)
  }

  def partitionVertices(gi: GraphIn, algo: String, k: Int, parent: String): Assignment = {
    val res = tr("partition.run", parent) {
      Partitioners.vertexPartitioner(algo).partition(gi.cg, k, gi.mask, seeds.partition)
    }
    Assignment(res.part, CostModel.partitioningTime(algo, res.cost), res.cost)
  }

  def sample(gi: GraphIn, assign: Array[Int], k: Int, layers: Int, gbs: Int, parent: String): Seq[WorkerSample] =
    tr("distdgl.sample", parent) {
      FastSampler.sampleStep(gi.cg, assign, gi.mask, k, GnnParams(layers = layers).fanouts, gbs, seeds.sampler)
    }

  /** DistDGL epoch times of `ss` over `grid`. */
  def dglEpochs(gi: GraphIn, ss: Seq[WorkerSample], grid: Seq[GnnParams], k: Int, gbs: Int, parent: String): Seq[Double] =
    tr("distdgl.sim", parent)(grid.map(p => DistDglSim.epoch(ss, p, k, gbs, gi.totalTrain).epochTime))

  def amortize(partTime: Double, random: Seq[Double], algo: Seq[Double], parent: String): Option[Double] =
    tr("amortize", parent)(Amortization.averageEpochs(partTime, random.zip(algo)))
}

/** A benchmark workload: the graphs it loads, the fixed partitionings its
  * set-up builds, and the cells of one pass, in call order.
  */
sealed abstract class Workload(val name: String, val graphKeys: Seq[String]) {
  def fixed(p: Pipeline, graphs: Map[String, GraphIn], parent: String): Map[(String, String), Assignment] = Map.empty
  def cells(p: Pipeline, in: Inputs): Seq[Cell]
}

object Workloads {
  val all: Seq[Workload] = Seq(DistGnnEdge, DistDglVertex, DistDglBatch)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  private def samplesDigest(ss: Seq[WorkerSample]): String =
    ss.map(s => s"${s.roots},${s.edgesPerHop.mkString(":")},${s.frontierPerHop.mkString(":")}," +
      s"${s.remoteExpanded},${s.inputVerts},${s.remoteInputVerts}").mkString(";")

  private def sampleCounts(ss: Seq[WorkerSample]): Map[String, Long] = Map(
    "distdgl.sampled_edges" -> ss.map(_.edgesPerHop.sum).sum,
    "distdgl.input_verts" -> ss.map(_.inputVerts).sum,
    "distdgl.remote_input_verts" -> ss.map(_.remoteInputVerts).sum,
  )

  private def ops(c: PartitionCost): Long = c.edgesStreamed + c.scoreEvals + c.heavyOps + c.passes

  private def sum(ms: Seq[Map[String, Long]]): Map[String, Long] =
    ms.flatten.groupMapReduce(_._1)(_._2)(_ + _)

  /** Table 4 path: each cell partitions, bridges and scores one edge
    * partitioning, then simulates DistGNN over the 27-combo grid for the
    * partitioner and for Random, and amortizes. Random comes first per
    * graph and provides the baseline quality.
    */
  object DistGnnEdge extends Workload("distgnn-edge", Seq("EN")) {
    val k = 32
    val algos: Seq[String] = Seq("Random", "HDRF", "HEP100")
    private val grid = GnnConfig.grid("GraphSage")

    def cells(p: Pipeline, in: Inputs): Seq[Cell] = {
      val random = mutable.Map.empty[String, EdgeCutQuality]
      for (key <- graphKeys; algo <- algos) yield {
        val id = s"$key/$algo/$k"
        Cell(id, () => {
          val gi = in.graphs(key)
          val res = p.tr("partition.run", id)(Partitioners.edgePartitioner(algo).partition(gi.cg, k, p.seeds.partition))
          val df = p.tr("partition.bridge", id)(PartitionBridge.edgeDf(p.spark, gi.cg, res.part))
          val q = p.tr("metrics.edge", id)(PartitionMetrics.edgeCutQuality(gi.g, df, k))
          if (algo == "Random") random(key) = q
          val qr = random(key)
          val epochs = p.tr("distgnn.sim", id) {
            grid.map(gp => (DistGnnSim.epoch(qr, gp).epochTime, DistGnnSim.epoch(q, gp).epochTime))
          }
          val am = p.amortize(CostModel.partitioningTime(algo, res.cost), epochs.map(_._1), epochs.map(_._2), id)
          CellResult(
            s"$id|${res.cost}|${q.perPart.mkString(",")}|$am",
            Map("partition.ops" -> ops(res.cost)),
            () => Check.edgeQuality(gi.cg, res.part, k, q),
          )
        })
      }
    }
  }

  /** Table 5 path: each cell partitions, bridges and scores one vertex
    * partitioning, samples a step for L ∈ {2, 3, 4} at gbs 64, simulates
    * DistDGL over `Tables.table5Grid` for the partitioner and for Random,
    * and amortizes.
    */
  object DistDglVertex extends Workload("distdgl-vertex", Seq("DI", "OR")) {
    val k = 8
    val algos: Seq[String] = Seq("Random", "KaHIP")
    val layers: Seq[Int] = Seq(2, 3, 4)
    val gbs = 64

    def cells(p: Pipeline, in: Inputs): Seq[Cell] = {
      val random = mutable.Map.empty[String, Seq[Double]]
      for (key <- graphKeys; algo <- algos) yield {
        val id = s"$key/$algo/$k"
        Cell(id, () => {
          val gi = in.graphs(key)
          val fx = p.partitionVertices(gi, algo, k, id)
          val df = p.tr("partition.bridge", id) {
            val df = PartitionBridge.vertexDf(p.spark, fx.assign).cache()
            df.count()
            df
          }
          val q = try p.tr("metrics.vertex", id)(PartitionMetrics.vertexCutQuality(gi.g, p.spark, df, k))
          finally df.unpersist()
          val ss = layers.map(l => l -> p.sample(gi, fx.assign, k, l, gbs, id)).toMap
          val epochs = p.dglEpochs(gi, ss(3), Tables.table5Grid, k, gbs, id)
          if (algo == "Random") random(key) = epochs
          val am = p.amortize(fx.partTime, random(key), epochs, id)
          CellResult(
            s"$id|${fx.cost}|${q.perPart.mkString(",")}|${layers.map(l => samplesDigest(ss(l))).mkString("|")}|$am",
            sum(Map("partition.ops" -> ops(fx.cost)) +: layers.map(l => sampleCounts(ss(l)))),
            () => Check.vertexQuality(gi.cg, fx.assign, gi.mask, k, q).orElse(
              layers.iterator.flatMap { l =>
                Check.samples(gi.cg, fx.assign, gi.mask, k, GnnParams(layers = l).fanouts, gbs, ss(l))
              }.nextOption()),
          )
        })
      }
    }
  }

  /** Fig 26 batch-size sweep: assignments fixed in set-up, so the pass is
    * sampler and simulator only, with no Spark. Each cell samples one step
    * for L ∈ {2, 3, 4} at its gbs, simulates DistDGL over the feature ×
    * hidden grid at each L, and amortizes the L = 3 epochs against Random.
    */
  object DistDglBatch extends Workload("distdgl-batch", Seq("OR", "EN")) {
    val k = 8
    val algos: Seq[String] = Seq("Random", "Metis", "KaHIP")
    val batchSizes: Seq[Int] = Seq(64, 256, 1024)
    val layers: Seq[Int] = Seq(2, 3, 4)

    override def fixed(p: Pipeline, graphs: Map[String, GraphIn], parent: String): Map[(String, String), Assignment] =
      (for (key <- graphKeys; algo <- algos)
        yield (key, algo) -> p.partitionVertices(graphs(key), algo, k, parent)).toMap

    def cells(p: Pipeline, in: Inputs): Seq[Cell] = {
      val random = mutable.Map.empty[(String, Int), Seq[Double]]
      for (key <- graphKeys; gbs <- batchSizes; algo <- algos) yield {
        val id = s"$key/$algo/$k/gbs$gbs"
        Cell(id, () => {
          val gi = in.graphs(key)
          val fx = in.fixed((key, algo))
          val ss = layers.map(l => l -> p.sample(gi, fx.assign, k, l, gbs, id)).toMap
          val epochs = layers.map { l =>
            l -> p.dglEpochs(gi, ss(l), Tables.table5Grid.map(_.copy(layers = l)), k, gbs, id)
          }.toMap
          if (algo == "Random") random((key, gbs)) = epochs(3)
          val am = p.amortize(fx.partTime, random((key, gbs)), epochs(3), id)
          CellResult(
            s"$id|${layers.map(l => samplesDigest(ss(l))).mkString("|")}|$am",
            sum(layers.map(l => sampleCounts(ss(l)))),
            () => layers.iterator.flatMap { l =>
              Check.samples(gi.cg, fx.assign, gi.mask, k, GnnParams(layers = l).fanouts, gbs, ss(l))
            }.nextOption(),
          )
        })
      }
    }
  }
}
