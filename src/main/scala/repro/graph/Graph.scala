package repro.graph

import java.util.Arrays.copyOfRange
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DataType, LongType}
import scala.collection.mutable.ArrayBuilder

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

  /** The edges in primitive blocks, for the metrics that scan the whole
    * graph: the [[compact]] CSR's `src`/`dst` cut into the contiguous
    * slices of [[Graph.slices]], one [[GraphBlock]] per partition, so the
    * concatenated blocks are the CSR's edges in order. Not cached: the
    * slices are the data, shipped with the tasks that read them. Compacts
    * the graph on first use, so it throws where [[compact]] does; a `copy`
    * gets its own blocks.
    */
  lazy val blocks: RDD[GraphBlock] = {
    val spark = edges.sparkSession
    val slices = Graph.slices(spark, csr.numEdges).map { case (from, until) =>
      GraphBlock(copyOfRange(csr.src, from, until), copyOfRange(csr.dst, from, until))
    }
    spark.sparkContext.parallelize(slices, slices.length).setName(s"$name blocks")
  }

  /** The driver-side CSR for the sequential partitioners, read from
    * `edges` on the first call and shared by later calls and by [[blocks]].
    * Throws if an endpoint lies outside `[0, numVertices)`.
    */
  def compact(): CompactGraph = csr

  private lazy val csr: CompactGraph = {
    val n = Math.toIntExact(numVertices)
    val parts = Graph.internalRows(edges, name, "src" -> LongType, "dst" -> LongType)
      .mapPartitions { rows =>
        val src = ArrayBuilder.make[Long]
        val dst = ArrayBuilder.make[Long]
        rows.foreach { r => src += r.getLong(0); dst += r.getLong(1) }
        Iterator((src.result(), dst.result()))
      }
      .collect()
    val src = new Array[Int](parts.map(_._1.length).sum)
    val dst = new Array[Int](src.length)
    var i = 0
    for ((ps, pd) <- parts) {
      var j = 0
      while (j < ps.length) {
        val s = ps(j); val d = pd(j)
        require(s >= 0 && s < n && d >= 0 && d < n,
          s"$name: edge ($s, $d) has an endpoint outside [0, $n)")
        src(i) = s.toInt
        dst(i) = d.toInt
        i += 1
        j += 1
      }
    }
    new CompactGraph(n, src, dst, directed)
  }
}

object Graph {

  /** The `cols` of `df` as Catalyst rows, read with no per-row
    * deserializer. Throws unless each column has its given type, since an
    * internal row's getters do not check types. A row is reused for the
    * next one, so read its fields before moving on.
    */
  private[repro] def internalRows(df: DataFrame, what: String, cols: (String, DataType)*): RDD[InternalRow] = {
    val sel = df.select(cols.map(c => col(c._1)): _*)
    val got = sel.schema.map(f => f.name -> f.dataType)
    require(got == cols, s"$what: columns ${got.mkString(", ")}, expected ${cols.mkString(", ")}")
    sel.queryExecution.toRdd
  }

  /** `[from, until)` of each of `defaultParallelism` contiguous slices of
    * `n` rows: how a driver array is cut into Spark partitions.
    */
  private[repro] def slices(spark: SparkSession, n: Int): Seq[(Int, Int)] = {
    val count = spark.sparkContext.defaultParallelism
    (0 until count).map(i => ((i.toLong * n / count).toInt, ((i + 1L) * n / count).toInt))
  }
}

/** One block of [[Graph.blocks]]: the edges `(src(i), dst(i))` of one
  * slice of the driver CSR, in primitive arrays.
  */
final case class GraphBlock(src: Array[Int], dst: Array[Int])

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
