package repro.partition.vertex

import repro.graph.CompactGraph
import repro.partition._
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration

/** Multilevel edge-cut partitioning: coarsen by heavy-edge matching,
  * partition the coarsest graph greedily, then uncoarsen with FM-style
  * local refinement at every level — the scheme shared by METIS (Karypis &
  * Kumar) and KaHIP (Sanders & Schulz).
  *
  * The two paper partitioners are configurations of this engine:
  *   - METIS-like: single initial partition, light refinement — fast,
  *     good cuts;
  *   - KaHIP-like: many restarts at the coarsest level and much deeper
  *     refinement — the best cuts in the study, at a partitioning time
  *     orders of magnitude above METIS (paper Fig. 15 / Table 5).
  *
  * The candidates — the `outerRestarts` hierarchies and the optional LPA
  * candidate — run concurrently: the hierarchies on the global execution
  * context, the LPA candidate on the calling thread. The output does not
  * depend on the core count or the scheduling: each candidate is a pure
  * function of `(graph, k, seed)`, the pick is the first minimum cut in the
  * fixed order hierarchies then LPA, and the op count is the sum over all
  * candidates, the work of the paper's sequential KaHIP.
  */
final class Multilevel(
    val name: String,
    restarts: Int,
    refinePasses: Int,
    coarsestSize: Int,
    outerRestarts: Int = 1,
    lpaCandidate: Boolean = false,
) extends VertexPartitioner {
  val category = "In-memory partitioning"

  private val Alpha = 1.05 // weight-balance cap: maxLoad <= Alpha * totalW / k

  /** Weighted graph at one level of the hierarchy. */
  private final case class LGraph(
      n: Int,
      adjOff: Array[Int],
      adjNbr: Array[Int],
      adjW: Array[Long],
      vw: Array[Long],
  )

  def partition(g: CompactGraph, k: Int, trainMask: Array[Boolean], seed: Long): VertexPartitionResult = {
    // Level 0 from the CompactGraph (unit weights, one entry per edge end).
    // Read-only, so every hierarchy and the LPA candidate share it.
    val base = LGraph(g.numVertices, g.adjOff, g.adjNbr,
      Array.fill(g.adjNbr.length)(1L), Array.fill(g.numVertices)(1L))

    // several full multilevel hierarchies with different matching orders,
    // started concurrently and awaited below in index order
    val running = (0 until outerRestarts).map(outer => Future(onePass(base, k, seed + 7777L * outer)))

    // KaHIP-style social-network fallback: a balanced label-propagation
    // solution, FM-polished — LPA explores a basin multilevel matching
    // sometimes misses on dense graphs (KaFFPa uses LPA the same way)
    val lpa = Option.when(lpaCandidate) {
      val r = Spinner.partition(g, k, trainMask, seed + 31)
      (r.part, r.cost.heavyOps + refine(base, r.part, k, refinePasses))
    }

    val hierarchies = running.map(Await.result(_, Duration.Inf))
    val candidates = hierarchies ++ lpa
    val (best, _) = candidates.minBy { case (part, _) => cutWeight(base, part) }
    VertexPartitionResult(best, PartitionCost(heavyOps = candidates.map(_._2).sum, passes = outerRestarts))
  }

  /** One multilevel hierarchy: its partition and its heavy-op count. */
  private def onePass(base: LGraph, k: Int, seed: Long): (Array[Int], Long) = {
    var heavyOps = 0L

    // ---- Coarsening ----------------------------------------------------
    var levels = List((base, null: Array[Int])) // (graph, fine→coarse map of level below)
    var cur = base
    var level = 0
    // cap super-vertex weight so the coarsest graph stays partitionable
    // into k balanced parts (the standard METIS maxvwgt constraint)
    val maxVw = math.max(1L, (1.5 * base.n / math.max(coarsestSize, 4 * k)).toLong)
    while (cur.n > math.max(coarsestSize, 4 * k) && level < 30) {
      val (coarse, cmap, ops) = coarsen(cur, seed + level, maxVw)
      heavyOps += ops
      if (coarse.n >= cur.n * 0.98) level = 1000 // no progress; stop
      else {
        levels = (coarse, cmap) :: levels
        cur = coarse
        level += 1
      }
    }

    // ---- Initial partition on the coarsest graph (best of `restarts`). --
    val coarsest = levels.head._1
    val initial = (0 until restarts).map { r =>
      val p = greedyInitial(coarsest, k, seed + 1000 + r)
      heavyOps += refine(coarsest, p, k, refinePasses) + coarsest.n.toLong * k
      p
    }

    // ---- Uncoarsen + refine at every level. -----------------------------
    var part = initial.minBy(cutWeight(coarsest, _))
    var rest = levels
    while (rest.tail.nonEmpty) {
      val (_, cmap) = rest.head
      val (fineG, _) = rest.tail.head
      val finePart = new Array[Int](fineG.n)
      var v = 0
      while (v < fineG.n) { finePart(v) = part(cmap(v)); v += 1 }
      heavyOps += refine(fineG, finePart, k, refinePasses)
      part = finePart
      rest = rest.tail
    }

    (part, heavyOps)
  }

  /** Heavy-edge matching + coarse-graph construction. `maxVw` caps the
    * merged super-vertex weight to keep the coarsest graph balanceable.
    */
  private def coarsen(lg: LGraph, seed: Long, maxVw: Long): (LGraph, Array[Int], Long) = {
    var ops = 0L
    val matchTo = Array.fill(lg.n)(-1)
    val order = StreamOrder.edgeOrder(lg.n, seed)
    var oi = 0
    while (oi < lg.n) {
      val v = order(oi)
      if (matchTo(v) < 0) {
        var bestW = -1L; var best = -1
        var j = lg.adjOff(v)
        while (j < lg.adjOff(v + 1)) {
          val w = lg.adjNbr(j)
          if (w != v && matchTo(w) < 0 && lg.adjW(j) > bestW &&
              lg.vw(v) + lg.vw(w) <= maxVw) { bestW = lg.adjW(j); best = w }
          j += 1
        }
        ops += lg.adjOff(v + 1) - lg.adjOff(v)
        if (best >= 0) { matchTo(v) = best; matchTo(best) = v }
        else matchTo(v) = v
      }
      oi += 1
    }
    // coarse ids
    val cmap = Array.fill(lg.n)(-1)
    var nc = 0
    var v = 0
    while (v < lg.n) {
      if (cmap(v) < 0) {
        cmap(v) = nc
        if (matchTo(v) != v) cmap(matchTo(v)) = nc
        nc += 1
      }
      v += 1
    }
    // coarse vertex weights + adjacency (hash-aggregate per coarse vertex)
    val cvw = new Array[Long](nc)
    v = 0
    while (v < lg.n) { cvw(cmap(v)) += lg.vw(v); v += 1 }
    val nbrMaps = Array.fill(nc)(new scala.collection.mutable.LongMap[Long]())
    v = 0
    while (v < lg.n) {
      val cv = cmap(v)
      var j = lg.adjOff(v)
      while (j < lg.adjOff(v + 1)) {
        val cw = cmap(lg.adjNbr(j))
        if (cw != cv) {
          val m = nbrMaps(cv)
          m(cw.toLong) = m.getOrElse(cw.toLong, 0L) + lg.adjW(j)
        }
        ops += 1
        j += 1
      }
      v += 1
    }
    val off = new Array[Int](nc + 1)
    var c = 0
    while (c < nc) { off(c + 1) = off(c) + nbrMaps(c).size; c += 1 }
    val nbr = new Array[Int](off(nc))
    val w = new Array[Long](off(nc))
    c = 0
    while (c < nc) {
      var idx = off(c)
      nbrMaps(c).foreach { case (cw, ww) => nbr(idx) = cw.toInt; w(idx) = ww; idx += 1 }
      c += 1
    }
    (LGraph(nc, off, nbr, w, cvw), cmap, ops)
  }

  /** Weighted greedy (LDG-style) initial partition of the coarsest graph. */
  private def greedyInitial(lg: LGraph, k: Int, seed: Long): Array[Int] = {
    val part = Array.fill(lg.n)(-1)
    val load = new Array[Long](k)
    val totalW = lg.vw.sum
    val capW = math.max(1L, (Alpha * totalW / k).toLong)
    val nbrW = new Array[Long](k)
    val order = StreamOrder.edgeOrder(lg.n, seed)
    var oi = 0
    while (oi < lg.n) {
      val v = order(oi)
      java.util.Arrays.fill(nbrW, 0L)
      var j = lg.adjOff(v)
      while (j < lg.adjOff(v + 1)) {
        val u = lg.adjNbr(j)
        if (part(u) >= 0) nbrW(part(u)) += lg.adjW(j)
        j += 1
      }
      var best = -1; var bestScore = Double.NegativeInfinity
      var p = 0
      while (p < k) {
        if (load(p) + lg.vw(v) <= capW || best < 0) {
          val s = nbrW(p) * (1.0 - load(p).toDouble / capW) - load(p).toDouble / capW
          if (s > bestScore) { bestScore = s; best = p }
        }
        p += 1
      }
      part(v) = best
      load(best) += lg.vw(v)
      oi += 1
    }
    part
  }

  /** FM-style refinement: greedy positive-gain moves under the balance cap.
    * Returns the number of edge scans performed (work counter).
    */
  private def refine(lg: LGraph, part: Array[Int], k: Int, passes: Int): Long = {
    var ops = 0L
    val totalW = lg.vw.sum
    val capW = math.max(1L, (Alpha * totalW / k).toLong)
    val load = new Array[Long](k)
    var v = 0
    while (v < lg.n) { load(part(v)) += lg.vw(v); v += 1 }
    val nbrW = new Array[Long](k)
    var pass = 0
    var moved = 1L
    while (pass < passes && moved > 0) {
      moved = 0
      v = 0
      while (v < lg.n) {
        val cur = part(v)
        java.util.Arrays.fill(nbrW, 0L)
        var j = lg.adjOff(v)
        while (j < lg.adjOff(v + 1)) { nbrW(part(lg.adjNbr(j))) += lg.adjW(j); j += 1 }
        ops += lg.adjOff(v + 1) - lg.adjOff(v)
        // if the home partition is over the cap, evict v even at a cut
        // loss (FM-style balance restoration); otherwise only positive
        // gains move
        val mustMove = load(cur) > capW
        var best = cur
        var bestGain = if (mustMove) Long.MinValue else 0L
        var p = 0
        while (p < k) {
          if (p != cur && load(p) + lg.vw(v) <= capW) {
            val gain = nbrW(p) - nbrW(cur)
            if (gain > bestGain || (gain == bestGain && best != cur && load(p) < load(best))) {
              bestGain = gain; best = p
            }
          }
          p += 1
        }
        if (best != cur) {
          part(v) = best
          load(cur) -= lg.vw(v)
          load(best) += lg.vw(v)
          moved += 1
        }
        v += 1
      }
      pass += 1
    }
    ops
  }

  /** Total weight of the edges whose ends lie in different parts. Each
    * edge appears once from each end of the adjacency, hence the halving.
    */
  private def cutWeight(lg: LGraph, part: Array[Int]): Long = {
    var cut = 0L
    var v = 0
    while (v < lg.n) {
      var j = lg.adjOff(v)
      while (j < lg.adjOff(v + 1)) {
        if (part(lg.adjNbr(j)) != part(v)) cut += lg.adjW(j)
        j += 1
      }
      v += 1
    }
    cut / 2
  }
}

object Multilevel {
  /** METIS-like configuration: one initial partition, light refinement. */
  val metis = new Multilevel("Metis", restarts = 1, refinePasses = 2, coarsestSize = 200)

  /** KaHIP-like configuration: heavy search — several full hierarchies,
    * deep refinement, plus an LPA candidate. Best cuts, slowest.
    */
  val kahip = new Multilevel("KaHIP", restarts = 8, refinePasses = 8, coarsestSize = 120,
    outerRestarts = 3, lpaCandidate = true)
}
