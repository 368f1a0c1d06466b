package repro.partition.edge

import repro.graph.CompactGraph
import repro.partition._

/** Degree-Based Hashing (Xie et al., NIPS 2014). Stateless streaming
  * vertex-cut: each edge is assigned by hashing its *lower-degree*
  * endpoint, so hubs get cut (replicated) and low-degree vertices stay
  * whole — a provably good strategy on power-law graphs.
  */
object Dbh extends EdgePartitioner {
  val name = "DBH"
  val category = "Stateless streaming partitioning"

  def partition(g: CompactGraph, k: Int, seed: Long): EdgePartitionResult = {
    val deg = g.degree
    val part = new Array[Int](g.numEdges)
    var i = 0
    while (i < g.numEdges) {
      part(i) = rule(deg, g.src(i), g.dst(i), seed, k)
      i += 1
    }
    EdgePartitionResult(part, PartitionCost(edgesStreamed = g.numEdges))
  }

  /** The part of edge `(u, v)`: the hash of its lower-degree endpoint. */
  def rule(deg: Array[Int], u: Int, v: Int, seed: Long, k: Int): Int =
    Mix.vertex((if (deg(u) <= deg(v)) u else v).toLong, seed, k)
}
