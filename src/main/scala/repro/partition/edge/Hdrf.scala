package repro.partition.edge

import repro.graph.CompactGraph
import repro.partition._

/** HDRF — High-Degree Replicated First (Petroni et al., CIKM 2015).
  * Stateful streaming vertex-cut: scores every partition for every edge
  * using partial degrees (prefer replicating the higher-degree endpoint)
  * plus a load-balance term. O(|E|·k) score evaluations — this is why its
  * partitioning time grows with the partition count in the paper (Fig. 6).
  *
  * Replica sets are kept as Long bitmasks (k ≤ 64, the study uses k ≤ 32).
  */
object Hdrf extends EdgePartitioner {
  val name = "HDRF"
  val category = "Stateful streaming partitioning"

  private val Lambda = 1.1 // balance weight, as in the HDRF paper
  private val Eps = 1.0

  def partition(g: CompactGraph, k: Int, seed: Long): EdgePartitionResult = {
    require(k <= 64, "HDRF replica bitmask supports k <= 64")
    val part = new Array[Int](g.numEdges)
    val partial = new Array[Int](g.numVertices) // partial degree seen so far
    val replicas = new Array[Long](g.numVertices) // bitmask of partitions
    val load = new Array[Long](k)
    var maxLoad = 0L
    var minLoad = 0L
    var scoreEvals = 0L

    val order = StreamOrder.edgeOrder(g.numEdges, seed)
    var oi = 0
    while (oi < g.numEdges) {
      val i = order(oi)
      val u = g.src(i); val v = g.dst(i)
      partial(u) += 1; partial(v) += 1
      val du = partial(u).toDouble; val dv = partial(v).toDouble
      val thetaU = du / (du + dv)
      val thetaV = 1.0 - thetaU
      var best = -1
      var bestScore = Double.NegativeInfinity
      var p = 0
      while (p < k) {
        val bit = 1L << p
        val gU = if ((replicas(u) & bit) != 0) 1.0 + (1.0 - thetaU) else 0.0
        val gV = if ((replicas(v) & bit) != 0) 1.0 + (1.0 - thetaV) else 0.0
        val bal = Lambda * (maxLoad - load(p)) / (Eps + maxLoad - minLoad)
        val s = gU + gV + bal
        if (s > bestScore) { bestScore = s; best = p }
        p += 1
      }
      scoreEvals += k
      part(i) = best
      replicas(u) |= 1L << best
      replicas(v) |= 1L << best
      load(best) += 1
      if (load(best) > maxLoad) maxLoad = load(best)
      minLoad = load(Loads.leastLoaded(load))
      oi += 1
    }
    EdgePartitionResult(
      part,
      PartitionCost(edgesStreamed = g.numEdges, scoreEvals = scoreEvals),
    )
  }
}
