package pipebench

import repro.distdgl.WorkerSample
import repro.graph.CompactGraph
import repro.metrics.{EdgeCutQuality, EdgePartLoad, PartitionMetrics, VertexCutQuality, VertexPartLoad}

/** Correctness of what the layers returned, recomputed on the driver with
  * plain loops over the CSR edge arrays and the assignment. Each check
  * returns the first mismatch it finds, or None.
  */
object Check {

  private def expect(what: String, got: Any, want: Any): Option[String] =
    if (got == want) None else Some(s"$what: got $got, want $want")

  private def first(checks: Iterator[Option[String]]): Option[String] =
    checks.collectFirst { case Some(msg) => msg }

  /** Vertex-cut: edges, covered verts and sync verts per part must equal
    * [[PartitionMetrics.edgeCutQuality]] exactly.
    */
  def edgeQuality(cg: CompactGraph, assign: Array[Int], k: Int, q: EdgeCutQuality): Option[String] = {
    require(k <= 64, "cover bitsets hold at most 64 parts")
    val edges = new Array[Long](k)
    val cover = new Array[Long](cg.numVertices)
    var i = 0
    while (i < cg.numEdges) {
      val p = assign(i)
      edges(p) += 1
      cover(cg.src(i)) |= 1L << p
      cover(cg.dst(i)) |= 1L << p
      i += 1
    }
    val verts = new Array[Long](k)
    val sync = new Array[Long](k)
    cover.foreach { bits =>
      val copies = java.lang.Long.bitCount(bits)
      var p = 0
      while (p < k) {
        if ((bits & (1L << p)) != 0) { verts(p) += 1; if (copies >= 2) sync(p) += 1 }
        p += 1
      }
    }
    val want = (0 until k).map(p => EdgePartLoad(p, edges(p), verts(p), sync(p)))
    first(Iterator(
      expect("edge perPart", q.perPart, want),
      expect("numEdges", q.numEdges, cg.numEdges.toLong),
      expect("numVertices", q.numVertices, cg.numVertices.toLong),
      expect("replicationFactor", q.replicationFactor, verts.sum.toDouble / cg.numVertices),
      expect("edgeBalance", q.edgeBalance, PartitionMetrics.balance(edges.toSeq)),
      expect("vertexBalance", q.vertexBalance, PartitionMetrics.balance(verts.toSeq)),
    ))
  }

  /** Edge-cut: verts, train verts and local edges per part, and the cut
    * edges, must equal [[PartitionMetrics.vertexCutQuality]] exactly.
    */
  def vertexQuality(
      cg: CompactGraph,
      assign: Array[Int],
      mask: Array[Boolean],
      k: Int,
      q: VertexCutQuality,
  ): Option[String] = {
    val verts = new Array[Long](k)
    val train = new Array[Long](k)
    val local = new Array[Long](k)
    var v = 0
    while (v < cg.numVertices) {
      verts(assign(v)) += 1
      if (mask(v)) train(assign(v)) += 1
      v += 1
    }
    var cut = 0L
    var i = 0
    while (i < cg.numEdges) {
      val ps = assign(cg.src(i))
      if (ps == assign(cg.dst(i))) local(ps) += 1 else cut += 1
      i += 1
    }
    val want = (0 until k).map(p => VertexPartLoad(p, verts(p), train(p), local(p)))
    first(Iterator(
      expect("vertex perPart", q.perPart, want),
      expect("numEdges", q.numEdges, cg.numEdges.toLong),
      expect("edgeCutRatio", q.edgeCutRatio, cut.toDouble / cg.numEdges),
      expect("vertexBalance", q.vertexBalance, PartitionMetrics.balance(verts.toSeq)),
      expect("trainVertexBalance", q.trainVertexBalance, PartitionMetrics.balance(train.toSeq)),
    ))
  }

  /** Invariants of one sampled step: one sample per worker; roots =
    * min(gbs/k, local train vertices); edgesPerHop(t) ≤ frontier(t)·fanout(t);
    * remoteInputVerts ≤ inputVerts ≤ |V|.
    */
  def samples(
      cg: CompactGraph,
      assign: Array[Int],
      mask: Array[Boolean],
      k: Int,
      fanouts: Seq[Int],
      gbs: Int,
      ss: Seq[WorkerSample],
  ): Option[String] = {
    val localTrain = new Array[Long](k)
    var v = 0
    while (v < cg.numVertices) { if (mask(v)) localTrain(assign(v)) += 1; v += 1 }
    val perWorker = math.max(1, gbs / k).toLong
    val l = fanouts.size
    first(Iterator(expect("workers", ss.map(_.worker), 0 until k)) ++ ss.iterator.flatMap { s =>
      val w = s.worker
      Iterator(
        expect(s"w$w roots", s.roots, math.min(perWorker, localTrain(w))),
        expect(s"w$w hops", (s.edgesPerHop.size, s.frontierPerHop.size), (l, l + 1)),
        expect(s"w$w frontier(0)", s.frontierPerHop.headOption, Some(s.roots)),
      ) ++ (0 until l).iterator.map { t =>
        val cap = s.frontierPerHop(t) * fanouts(t)
        if (s.edgesPerHop(t) <= cap) None else Some(s"w$w hop $t: ${s.edgesPerHop(t)} edges > $cap")
      } ++ Iterator(
        if (s.remoteInputVerts <= s.inputVerts && s.inputVerts <= cg.numVertices) None
        else Some(s"w$w inputs: remote ${s.remoteInputVerts}, input ${s.inputVerts}, |V| ${cg.numVertices}"),
      )
    })
  }
}
