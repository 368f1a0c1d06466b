package repro.partition.edge

import repro.graph.CompactGraph
import repro.partition._

/** Stateless streaming vertex-cut baseline: each edge is hashed to a
  * partition independently. This is the paper's `Random` edge partitioner
  * and the baseline every speedup in Section 4 is measured against.
  */
object RandomEdge extends EdgePartitioner {
  val name = "Random"
  val category = "Stateless streaming partitioning"

  def partition(g: CompactGraph, k: Int, seed: Long): EdgePartitionResult = {
    val part = new Array[Int](g.numEdges)
    var i = 0
    while (i < g.numEdges) {
      part(i) = Mix.edge(g.src(i).toLong, g.dst(i).toLong, seed, k)
      i += 1
    }
    EdgePartitionResult(part, PartitionCost(edgesStreamed = g.numEdges))
  }
}
