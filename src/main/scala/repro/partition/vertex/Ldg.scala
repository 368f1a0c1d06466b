package repro.partition.vertex

import repro.graph.CompactGraph
import repro.partition._

/** LDG — Linear Deterministic Greedy (Stanton & Kliot, KDD 2012).
  * Stateful streaming edge-cut: vertices arrive in a random order; each is
  * placed on the partition holding most of its already-placed neighbors,
  * weighted by a linear penalty on the partition's fill level.
  */
object Ldg extends VertexPartitioner {
  val name = "LDG"
  val category = "Stateful streaming partitioning"

  def partition(g: CompactGraph, k: Int, trainMask: Array[Boolean], seed: Long): VertexPartitionResult = {
    val n = g.numVertices
    val part = Array.fill(n)(-1)
    val size = new Array[Long](k)
    val cap = math.ceil(n.toDouble / k)
    var scoreEvals = 0L

    val order = StreamOrder.edgeOrder(n, seed)
    val nbrCount = new Array[Int](k)
    var oi = 0
    while (oi < n) {
      val v = order(oi)
      java.util.Arrays.fill(nbrCount, 0)
      var j = g.adjOff(v)
      while (j < g.adjOff(v + 1)) {
        val w = g.adjNbr(j)
        if (part(w) >= 0) nbrCount(part(w)) += 1
        j += 1
      }
      var best = -1
      var bestScore = Double.NegativeInfinity
      var p = 0
      while (p < k) {
        val s = nbrCount(p) * (1.0 - size(p) / cap)
        // ties (including the no-placed-neighbors case) go to the
        // least-loaded partition
        if (s > bestScore || (s == bestScore && (best < 0 || size(p) < size(best)))) {
          bestScore = s; best = p
        }
        p += 1
      }
      scoreEvals += k
      part(v) = best
      size(best) += 1
      oi += 1
    }
    VertexPartitionResult(
      part,
      PartitionCost(edgesStreamed = n.toLong + 2L * g.numEdges, scoreEvals = scoreEvals),
    )
  }
}
