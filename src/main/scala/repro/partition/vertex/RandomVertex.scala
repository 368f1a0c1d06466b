package repro.partition.vertex

import repro.graph.CompactGraph
import repro.partition._

/** Stateless streaming edge-cut baseline: each vertex is hashed to a
  * partition independently — the paper's `Random` vertex partitioner and
  * the baseline for every DistDGL speedup in Section 5.
  */
object RandomVertex extends VertexPartitioner {
  val name = "Random"
  val category = "Stateless streaming partitioning"

  def partition(g: CompactGraph, k: Int, trainMask: Array[Boolean], seed: Long): VertexPartitionResult = {
    val part = Array.tabulate(g.numVertices)(v => Mix.vertex(v.toLong, seed, k))
    VertexPartitionResult(part, PartitionCost(edgesStreamed = g.numVertices))
  }
}
