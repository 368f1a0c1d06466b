package repro.partition.vertex

import repro.graph.CompactGraph
import repro.partition._

/** Spinner (Martella et al., ICDE 2017): balanced label propagation.
  * Vertices start on random partitions; for a fixed number of sweeps each
  * vertex moves to the label most frequent among its neighbors, normalized
  * by the target partition's remaining capacity, subject to a hard balance
  * cap. The paper classifies it as in-memory partitioning.
  */
object Spinner extends VertexPartitioner {
  val name = "Spinner"
  val category = "In-memory partitioning"

  private val MaxIters = 20
  private val Capacity = 1.05 // max fraction of n/k per partition

  def partition(g: CompactGraph, k: Int, trainMask: Array[Boolean], seed: Long): VertexPartitionResult = {
    val n = g.numVertices
    val part = Array.tabulate(n)(v => Mix.vertex(v.toLong, seed, k))
    val size = new Array[Long](k)
    part.foreach(p => size(p) += 1)
    val cap = (Capacity * n / k).toLong + 1
    var heavyOps = 0L

    val nbrCount = new Array[Int](k)
    val order = StreamOrder.edgeOrder(n, seed + 1)
    var iter = 0
    var moved = Long.MaxValue
    while (iter < MaxIters && moved > n / 200) {
      moved = 0
      var oi = 0
      while (oi < n) {
        val v = order(oi)
        val degV = g.adjOff(v + 1) - g.adjOff(v)
        if (degV > 0) {
          java.util.Arrays.fill(nbrCount, 0)
          var j = g.adjOff(v)
          while (j < g.adjOff(v + 1)) { nbrCount(part(g.adjNbr(j))) += 1; j += 1 }
          heavyOps += degV
          val cur = part(v)
          var best = cur
          var bestScore = nbrCount(cur).toDouble / degV + (1.0 - size(cur).toDouble / cap)
          var p = 0
          while (p < k) {
            if (p != cur && size(p) < cap) {
              val s = nbrCount(p).toDouble / degV + (1.0 - size(p).toDouble / cap)
              if (s > bestScore) { bestScore = s; best = p }
            }
            p += 1
          }
          if (best != cur) {
            part(v) = best; size(cur) -= 1; size(best) += 1; moved += 1
          }
        }
        oi += 1
      }
      iter += 1
    }
    VertexPartitionResult(
      part,
      PartitionCost(edgesStreamed = n.toLong, heavyOps = heavyOps, passes = iter),
    )
  }
}
