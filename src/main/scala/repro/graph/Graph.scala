package repro.graph

import org.apache.spark.sql.DataFrame

/** A graph held as a Spark DataFrame of edges plus metadata.
  *
  * `edges` has columns `src: long`, `dst: long`. Vertex ids are dense in
  * `[0, numVertices)`. For undirected graphs edges are canonicalized with
  * `src < dst` and stored once; the driver CSR ([[CompactGraph]]) holds
  * both directions.
  *
  * @param name      short display name (e.g. "OR")
  * @param directed  whether the graph is directed
  */
final case class Graph(
    name: String,
    directed: Boolean,
    numVertices: Long,
    edges: DataFrame,
) {
  /** Number of edges (cached on first call by the caller if needed). */
  lazy val numEdges: Long = edges.count()

  /** Collect to a driver-side CSR for the sequential partitioners. Throws
    * if an endpoint lies outside `[0, numVertices)`.
    */
  def compact(): CompactGraph = {
    val n = Math.toIntExact(numVertices)
    val rows = edges.select("src", "dst").collect()
    val src = new Array[Int](rows.length)
    val dst = new Array[Int](rows.length)
    var i = 0
    while (i < rows.length) {
      val s = rows(i).getLong(0); val d = rows(i).getLong(1)
      require(s >= 0 && s < n && d >= 0 && d < n,
        s"$name: edge ($s, $d) has an endpoint outside [0, $n)")
      src(i) = s.toInt
      dst(i) = d.toInt
      i += 1
    }
    new CompactGraph(n, src, dst, directed)
  }
}

/** Driver-side compressed graph for the sequential (streaming / in-memory)
  * partitioning algorithms. Partitioning in the paper is a single-machine
  * preprocessing step; all *evaluation* of its output runs on Spark.
  *
  * The adjacency (CSR) is over the undirected view of the graph — both
  * edge and vertex partitioners treat the structure as undirected, as do
  * METIS/KaHIP/HEP in the paper.
  */
final class CompactGraph(
    val numVertices: Int,
    val src: Array[Int],
    val dst: Array[Int],
    val directed: Boolean,
) {
  def numEdges: Int = src.length

  /** Undirected degree of every vertex (each endpoint of each edge counts). */
  lazy val degree: Array[Int] = {
    val d = new Array[Int](numVertices)
    var i = 0
    while (i < src.length) { d(src(i)) += 1; d(dst(i)) += 1; i += 1 }
    d
  }

  /** CSR offsets into [[adjNbr]]/[[adjEdge]]; length numVertices + 1. */
  lazy val (adjOff, adjNbr, adjEdge): (Array[Int], Array[Int], Array[Int]) = {
    val off = new Array[Int](numVertices + 1)
    var i = 0
    while (i < src.length) { off(src(i) + 1) += 1; off(dst(i) + 1) += 1; i += 1 }
    i = 0
    while (i < numVertices) { off(i + 1) += off(i); i += 1 }
    val nbr = new Array[Int](2 * src.length)
    val eid = new Array[Int](2 * src.length)
    val cur = java.util.Arrays.copyOf(off, off.length)
    i = 0
    while (i < src.length) {
      val s = src(i); val t = dst(i)
      nbr(cur(s)) = t; eid(cur(s)) = i; cur(s) += 1
      nbr(cur(t)) = s; eid(cur(t)) = i; cur(t) += 1
      i += 1
    }
    (off, nbr, eid)
  }

  /** In-neighbor CSR `(v, nbr)`, the neighbors whose state `v` aggregates
    * in message passing: the sources of `v`'s in-edges for a directed graph
    * (messages flow along edge direction), and [[adjOff]]/[[adjNbr]] for an
    * undirected one, where every edge points both ways.
    */
  lazy val (inOff, inNbr): (Array[Int], Array[Int]) =
    if (!directed) (adjOff, adjNbr)
    else {
      val off = new Array[Int](numVertices + 1)
      var i = 0
      while (i < src.length) { off(dst(i) + 1) += 1; i += 1 }
      i = 0
      while (i < numVertices) { off(i + 1) += off(i); i += 1 }
      val nbr = new Array[Int](src.length)
      val cur = java.util.Arrays.copyOf(off, off.length)
      i = 0
      while (i < src.length) { nbr(cur(dst(i))) = src(i); cur(dst(i)) += 1; i += 1 }
      (off, nbr)
    }

  def meanDegree: Double = 2.0 * numEdges / numVertices
}
