package repro.partition.edge

import repro.graph.CompactGraph
import repro.partition._

/** 2PS-L — Two-Phase Streaming with Linear-time scoring (Mayer et al.,
  * ICDE 2022). Phase 1 streams the edges and greedily clusters vertices
  * under a volume (degree-sum) cap; phase 2 packs clusters onto partitions
  * and re-streams the edges, assigning each edge to the partition of one
  * of its endpoints' clusters — constant score work per edge (no k-way
  * scoring), hence linear run time.
  *
  * Because clusters and partitions are balanced by *volume* (edges), the
  * number of distinct vertices per partition can be very skewed — this is
  * the vertex imbalance the paper highlights for 2PS-L (Fig. 4/8), and it
  * emerges here for the same structural reason.
  */
object TwoPsL extends EdgePartitioner {
  val name = "2PS-L"
  val category = "Stateful streaming partitioning"

  def partition(g: CompactGraph, k: Int, seed: Long): EdgePartitionResult = {
    val n = g.numVertices
    val deg = g.degree
    val clusterCap = 2.0 * g.numEdges / k
    var heavyOps = 0L

    // ---- Phase 1: streaming clustering (union by explicit relabel). ----
    val cluster = Array.fill(n)(-1)
    val volume = new scala.collection.mutable.ArrayBuffer[Long]()
    val members = new scala.collection.mutable.ArrayBuffer[scala.collection.mutable.ArrayBuffer[Int]]()

    def newCluster(): Int = {
      volume += 0L
      members += new scala.collection.mutable.ArrayBuffer[Int]()
      volume.length - 1
    }
    def add(v: Int, c: Int): Unit = {
      cluster(v) = c; volume(c) += deg(v); members(c) += v
    }

    val order = StreamOrder.edgeOrder(g.numEdges, seed)
    var oi = 0
    while (oi < g.numEdges) {
      val i = order(oi)
      val u = g.src(i); val v = g.dst(i)
      val cu = cluster(u); val cv = cluster(v)
      if (cu < 0 && cv < 0) {
        val c = newCluster(); add(u, c); add(v, c)
      } else if (cu >= 0 && cv < 0) {
        if (volume(cu) + deg(v) <= clusterCap) add(v, cu) else add(v, newCluster())
      } else if (cu < 0 && cv >= 0) {
        if (volume(cv) + deg(u) <= clusterCap) add(u, cv) else add(u, newCluster())
      } else if (cu != cv && volume(cu) + volume(cv) <= clusterCap) {
        // merge the smaller cluster into the larger one
        val (big, small) = if (volume(cu) >= volume(cv)) (cu, cv) else (cv, cu)
        heavyOps += members(small).length
        members(small).foreach { w => cluster(w) = big; members(big) += w }
        volume(big) += volume(small)
        volume(small) = 0L
        members(small).clear()
      }
      oi += 1
    }

    // ---- Pack clusters onto k partitions, first-fit decreasing by volume. --
    val liveClusters = volume.indices.filter(c => members(c).nonEmpty)
    val binOf = new Array[Int](volume.length)
    val binVol = new Array[Long](k)
    liveClusters.sortBy(c => -volume(c)).foreach { c =>
      val best = Loads.leastLoaded(binVol)
      binOf(c) = best; binVol(best) += volume(c)
      heavyOps += k
    }

    // ---- Phase 2: linear-time edge assignment. ----
    val part = new Array[Int](g.numEdges)
    val load = new Array[Long](k)
    val loadCap = Loads.edgeCap(g.numEdges, k)
    var oi2 = 0
    while (oi2 < g.numEdges) {
      val i = order(oi2)
      val u = g.src(i); val v = g.dst(i)
      val pu = binOf(cluster(u)); val pv = binOf(cluster(v))
      // degree-aware: keep the edge with the *lower-degree* endpoint's
      // cluster (low-degree vertices stay whole, hubs get replicated —
      // the 2PS-L rule, same intuition as DBH)
      val candidate =
        if (pu == pv) pu
        else if (deg(u) < deg(v)) pu
        else if (deg(v) < deg(u)) pv
        else if (load(pu) <= load(pv)) pu
        else pv
      val target = Loads.spill(load, loadCap, candidate)
      part(i) = target
      load(target) += 1
      oi2 += 1
    }

    EdgePartitionResult(
      part,
      PartitionCost(edgesStreamed = 2L * g.numEdges, heavyOps = heavyOps, passes = 2),
    )
  }
}
