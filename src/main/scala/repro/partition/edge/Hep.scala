package repro.partition.edge

import repro.graph.CompactGraph
import repro.partition._

/** HEP — Hybrid Edge Partitioner (Mayer & Jacobsen, SIGMOD 2021).
  *
  * Vertices with degree above `τ · meanDegree` are "high-degree"; every
  * edge with at least one high-degree endpoint is partitioned by streaming,
  * the rest by in-memory Neighborhood Expansion (NE): greedily grow each
  * partition around low-external-degree boundary vertices, which keeps
  * replication low. While expanding, NE *defers* edges whose far endpoint
  * is a hub not yet covered by the current partition — claiming them
  * blindly would replicate hubs into every partition. Deferred and
  * high-degree edges are then streamed with a coverage-aware score (prefer
  * partitions that already hold a replica of an endpoint, as in HEP's
  * streaming phase), falling back to the DBH rule.
  *
  * Larger τ ⇒ fewer vertices counted as high-degree ⇒ more of the graph is
  * partitioned in memory ⇒ better quality but more in-memory work. The
  * paper evaluates τ = 10 (HEP10) and τ = 100 (HEP100, effectively fully
  * in-memory).
  */
final class Hep(tau: Double) extends EdgePartitioner {
  val name = s"HEP${tau.toInt}"
  val category = "Hybrid partitioning"

  def partition(g: CompactGraph, k: Int, seed: Long): EdgePartitionResult = {
    require(k <= 64, "HEP coverage bitmask supports k <= 64")
    val deg = g.degree
    val mean = g.meanDegree
    val threshold = tau * mean
    // NE expands only vertices below this and hands an edge to the
    // streaming phase when its far endpoint is above it and not yet
    // covered by the growing partition (hub deferral). The cap at
    // NeExpandFactor · mean keeps NE selective, and so the partitions
    // tight, even when τ is large (HEP100).
    val hubThresh = math.min(threshold, Hep.NeExpandFactor * mean)
    val high = Array.tabulate(g.numVertices)(v => deg(v) > threshold)
    val part = new Array[Int](g.numEdges)
    java.util.Arrays.fill(part, -1)
    val load = new Array[Long](k)
    val cover = new Array[Long](g.numVertices) // partition bitmask per vertex
    var heavyOps = 0L
    var streamed = 0L

    // --- Split edges: streaming set (touches a high-degree vertex) vs NE set.
    val isStream = new Array[Boolean](g.numEdges)
    var nStream = 0
    var i = 0
    while (i < g.numEdges) {
      if (high(g.src(i)) || high(g.dst(i))) { isStream(i) = true; nStream += 1 }
      i += 1
    }
    val nLow = g.numEdges - nStream

    // --- In-memory NE over the low-degree subgraph. ---------------------
    if (nLow > 0) {
      val target = math.ceil(nLow.toDouble / k).toLong
      val assignedV = new Array[Boolean](g.numVertices)
      val extDeg = new Array[Int](g.numVertices) // unassigned low-edges at v
      i = 0
      while (i < g.numEdges) {
        if (!isStream(i)) { extDeg(g.src(i)) += 1; extDeg(g.dst(i)) += 1 }
        i += 1
      }
      // NE seeds expansions at the lowest-degree untouched vertex (ties by
      // id) — compact regions grow outward from the sparse periphery
      val vertexOrder = Array.tabulate(g.numVertices)(identity)
        .filter(v => deg(v) <= hubThresh)
        .sortBy(v => (deg(v), v))
      var scan = 0

      var p = 0
      while (p < k) {
        val bit = 1L << p
        var assigned = 0L
        val cap = target // NE leftovers fall through to coverage-aware streaming
        val boundary = new java.util.PriorityQueue[(Int, Int)](11,
          (a: (Int, Int), b: (Int, Int)) => Integer.compare(a._1, b._1))
        while (assigned < cap && {
            if (boundary.isEmpty) {
              while (scan < vertexOrder.length &&
                     (assignedV(vertexOrder(scan)) || extDeg(vertexOrder(scan)) == 0)) scan += 1
              if (scan < vertexOrder.length) boundary.add((extDeg(vertexOrder(scan)), vertexOrder(scan)))
            }
            !boundary.isEmpty
          }) {
          val (_, v) = boundary.poll()
          if (!assignedV(v) && extDeg(v) > 0 && deg(v) <= hubThresh) {
            assignedV(v) = true
            val from = g.adjOff(v); val to = g.adjOff(v + 1)
            var j = from
            while (j < to) {
              val e = g.adjEdge(j)
              if (!isStream(e) && part(e) < 0) {
                val w = g.adjNbr(j)
                // hub deferral: don't drag an uncovered hub into p
                if (deg(w) > hubThresh && (cover(w) & bit) == 0L) {
                  // leave for the streaming phase
                } else {
                  part(e) = p
                  assigned += 1
                  load(p) += 1
                  cover(v) |= bit
                  cover(w) |= bit
                  extDeg(v) -= 1
                  extDeg(w) -= 1
                  if (!assignedV(w) && extDeg(w) > 0) boundary.add((extDeg(w), w))
                }
                heavyOps += 1
              }
              j += 1
            }
          }
          heavyOps += 1
        }
        p += 1
      }
    }

    // --- Streaming phase: high-degree + deferred edges, coverage-aware. --
    val order = StreamOrder.edgeOrder(g.numEdges, seed + 2)
    val loadCap = Loads.edgeCap(g.numEdges, k)
    var oi = 0
    while (oi < g.numEdges) {
      val e = order(oi)
      if (part(e) < 0) {
        val u = g.src(e); val v = g.dst(e)
        val both = cover(u) | cover(v)
        var target = -1
        if (both != 0L) {
          // prefer a partition already holding a replica of an endpoint
          // (both endpoints > one endpoint), break ties by load
          var bestScore = -1
          var p2 = 0
          while (p2 < k) {
            val bit = 1L << p2
            if ((both & bit) != 0L && load(p2) < loadCap) {
              var s = 0
              if ((cover(u) & bit) != 0L) s += 1
              if ((cover(v) & bit) != 0L) s += 1
              if (s > bestScore || (s == bestScore && load(p2) < load(target))) {
                bestScore = s; target = p2
              }
            }
            p2 += 1
          }
          heavyOps += java.lang.Long.bitCount(both)
        }
        if (target < 0) target = Loads.spill(load, loadCap, Dbh.rule(deg, u, v, seed, k))
        part(e) = target
        load(target) += 1
        cover(u) |= 1L << target
        cover(v) |= 1L << target
        streamed += 1
      }
      oi += 1
    }

    EdgePartitionResult(
      part,
      PartitionCost(edgesStreamed = streamed + g.numEdges, heavyOps = heavyOps, passes = 2),
    )
  }
}

object Hep {
  /** NE expands vertices of degree up to this multiple of the mean degree
    * (capped by the high-degree threshold τ · mean).
    */
  private val NeExpandFactor = 10.0

  /** τ = 10: a noticeable share of edges is streamed. */
  val hep10 = new Hep(10)

  /** τ = 100: effectively fully in-memory — NE may claim hub edges once
    * the hub is covered by the growing partition (HEP10 must stream every
    * hub edge), which is what the larger memory budget buys.
    */
  val hep100 = new Hep(100)
}
