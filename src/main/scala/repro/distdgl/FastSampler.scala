package repro.distdgl

import repro.graph.CompactGraph

/** Measured mini-batch sample of one worker in one training step.
  *
  * @param roots          batch roots (training vertices) on this worker
  * @param edgesPerHop    sampled edges at hop t (t = 1 … L, outermost last)
  * @param frontierPerHop distinct frontier sizes, hop 0 (roots) … hop L
  * @param remoteExpanded frontier vertices expanded whose owner is another
  *                       worker (each costs a sampling RPC)
  * @param inputVerts     distinct vertices in the computation graph
  * @param remoteInputVerts input vertices owned by another worker — their
  *                       features must be fetched over the network (the
  *                       paper's "remote vertices")
  */
final case class WorkerSample(
    worker: Int,
    roots: Long,
    edgesPerHop: Seq[Long],
    frontierPerHop: Seq[Long],
    remoteExpanded: Long,
    inputVerts: Long,
    remoteInputVerts: Long,
) {
  def localInputVerts: Long = inputVerts - remoteInputVerts
}

/** Deterministic pseudo-random ordering key of the sampler's draws: a
  * draw takes the smallest vertices by (key, id). Plain arithmetic, so the
  * Spark reference sampler of the tests expresses it as a column and makes
  * identical decisions (tested for equality).
  */
object SampleOrder {
  // prime modulus with a multiplier that wraps many times — a multiplier
  // congruent to a small number mod Mod would degenerate to id order
  val Mod = 999983L
  val Mult = 40499L

  def key(v: Long, seed: Long): Long =
    (((v + seed * 7919L) * Mult) % Mod + Mod) % Mod
}

/** DistDGL-style neighborhood sampling over the driver CSR graph: every
  * worker draws a mini-batch from its *local* training vertices and
  * expands the k-hop neighborhood with per-vertex fanout caps, each draw
  * taking the smallest vertices by [[SampleOrder]]. All the quantities the
  * paper shows drive DistDGL performance — mini-batch computation-graph
  * sizes, input-vertex balance, remote vertices — are measured, not
  * modelled.
  */
object FastSampler {

  // a draw sorts (key << IdBits) | id, which orders as (key, id) because
  // ids are non-negative Ints and keys stay below Mod < 2^(63 - IdBits)
  private val IdBits = 31
  private val IdMask = (1L << IdBits) - 1

  /** Sample one synchronous training step for all `k` workers.
    *
    * @param assign    partition assignment; worker w owns the vertices of part w
    * @param trainMask training-vertex flags ([[repro.graph.GraphOps.trainMask]])
    * @param gbs       global batch size; each worker draws ≈ gbs/k roots
    */
  def sampleStep(
      cg: CompactGraph,
      assign: Array[Int],
      trainMask: Array[Boolean],
      k: Int,
      fanouts: Seq[Int],
      gbs: Int,
      seed: Long,
  ): Seq[WorkerSample] = {
    val n = cg.numVertices
    val perWorker = math.max(1, gbs / k)
    // message adjacency: the neighbors whose state a vertex aggregates
    val (off, nbr) = (cg.inOff, cg.inNbr)

    // one bucket pass: each worker's training vertices, in id order
    val trainOff = new Array[Int](k + 1)
    for (v <- 0 until n if trainMask(v)) trainOff(assign(v) + 1) += 1
    for (w <- 0 until k) trainOff(w + 1) += trainOff(w)
    val train = new Array[Int](trainOff(k))
    val fill = trainOff.clone()
    for (v <- 0 until n if trainMask(v)) { train(fill(assign(v))) = v; fill(assign(v)) += 1 }

    var maxDraw = train.length
    for (v <- 0 until n) maxDraw = math.max(maxDraw, off(v + 1) - off(v))
    val buf = new Array[Long](maxDraw)
    // epoch stamps: inputs(v) == w + 1 once v is an input of worker w;
    // inNext(v) == hop once v is in the frontier being built
    val inputs = new Array[Int](n)
    val inNext = new Array[Int](n)
    var hop = 0
    var frontier = new Array[Int](n)
    var next = new Array[Int](n)

    (0 until k).map { w =>
      val sizes = new Array[Long](fanouts.length + 1) // distinct frontier per hop
      val edges = new Array[Long](fanouts.length)
      var size = draw(train, trainOff(w), trainOff(w + 1), perWorker, seed, buf)
      for (i <- 0 until size) { frontier(i) = (buf(i) & IdMask).toInt; inputs(frontier(i)) = w + 1 }
      sizes(0) = size
      var remoteExpanded, remote = 0L
      var inputVerts = size.toLong

      for (t <- fanouts.indices) {
        hop += 1
        var nextSize = 0
        for (i <- 0 until size) {
          val v = frontier(i)
          if (assign(v) != w) remoteExpanded += 1
          val m = draw(nbr, off(v), off(v + 1), fanouts(t), seed + t + 1, buf)
          edges(t) += m
          for (j <- 0 until m) {
            val u = (buf(j) & IdMask).toInt
            if (inNext(u) != hop) { inNext(u) = hop; next(nextSize) = u; nextSize += 1 }
            if (inputs(u) != w + 1) { inputs(u) = w + 1; inputVerts += 1; if (assign(u) != w) remote += 1 }
          }
        }
        val swap = frontier; frontier = next; next = swap
        size = nextSize
        sizes(t + 1) = size
      }
      WorkerSample(w, sizes(0), edges.toSeq, sizes.toSeq, remoteExpanded, inputVerts, remote)
    }
  }

  /** The `m` smallest of `ids(from until until)` by (key, id), with
    * multiplicity, as `(key << IdBits) | id` codes in `buf(0 until count)`;
    * returns the count.
    */
  private def draw(ids: Array[Int], from: Int, until: Int, m: Int, seed: Long, buf: Array[Long]): Int = {
    val len = until - from
    for (i <- 0 until len) {
      val id = ids(from + i)
      buf(i) = (SampleOrder.key(id.toLong, seed) << IdBits) | id
    }
    if (len > m) java.util.Arrays.sort(buf, 0, len)
    math.min(len, m)
  }
}
