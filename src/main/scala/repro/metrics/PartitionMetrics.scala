package repro.metrics

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.{IntegerType, LongType}
import repro.graph.{Graph, GraphOps}

/** Per-partition load for a vertex-cut (edge partitioning):
  * @param edges     edges assigned to the partition
  * @param verts     vertices covered (owned or replicated), |V(p_i)|
  * @param syncVerts covered vertices with ≥ 2 copies cluster-wide — the
  *                  ones that must synchronize state over the network
  */
final case class EdgePartLoad(part: Int, edges: Long, verts: Long, syncVerts: Long)

/** Quality of one edge partitioning (paper §2.1 metrics). */
final case class EdgeCutQuality(
    k: Int,
    numVertices: Long,
    numEdges: Long,
    replicationFactor: Double,
    edgeBalance: Double,
    vertexBalance: Double,
    perPart: Seq[EdgePartLoad],
)

/** Per-partition load for an edge-cut (vertex partitioning). */
final case class VertexPartLoad(part: Int, verts: Long, trainVerts: Long, localEdges: Long)

/** Quality of one vertex partitioning (paper §2.1 metrics). */
final case class VertexCutQuality(
    k: Int,
    numVertices: Long,
    numEdges: Long,
    edgeCutRatio: Double,
    vertexBalance: Double,
    trainVertexBalance: Double,
    perPart: Seq[VertexPartLoad],
)

/** Partition-quality metrics over the assignment DataFrames (`(src, dst,
  * part)` for edge partitionings, `(vid, part)` for vertex partitionings).
  * Each pass has no shuffle: every map task folds its items into a few
  * primitive arrays (a [[Fold]]), `RDD.reduce` merges those on the driver,
  * and the driver derives the per-part loads. The edge metric is one pass
  * over its DataFrame; the vertex metric is one over its DataFrame and one
  * over the graph's [[Graph.blocks]]. Every metric here has a DuckDB oracle
  * test.
  *
  * A task counts a row that names a part outside `[0, k)` or a vertex
  * outside `[0, |V|)` instead of indexing it. The driver then throws an
  * `IllegalArgumentException` that names the first such row, rather than a
  * task failing with a wrapped `SparkException`. The blocks need no such
  * check: [[Graph.compact]] has checked their endpoints.
  *
  * DataFrames are read through `queryExecution.toRdd`, as Catalyst rows
  * with no deserializer, so no SQL execution is recorded per call: Spark's
  * listener threads would keep the last recorded execution, with its whole
  * plan and the assignment rows in it, reachable until the next event.
  */
object PartitionMetrics {

  /** Metrics of an edge partitioning (vertex-cut), for `1 <= k <= 64`. Each
    * task counts its edges per part and ORs bit p into a `|V|`-long cover
    * mask at both ends of every edge in part p. The driver reads the merged
    * masks: `verts(p)` counts the masks with bit p set, and `syncVerts(p)`
    * counts those of them with at least two bits set.
    */
  def edgeCutQuality(g: Graph, edgeDf: DataFrame, k: Int): EdgeCutQuality = {
    require(k >= 1 && k <= 64, s"k = $k: cover masks hold 1 to 64 parts")
    val n = Math.toIntExact(g.numVertices)
    val rows = Graph.internalRows(edgeDf, "edgeDf", "src" -> LongType, "dst" -> LongType, "part" -> IntegerType)
    val f = fold("edgeDf", rows, k, n) { (f, r) =>
      val s = r.getLong(0)
      val d = r.getLong(1)
      val p = r.getInt(2)
      if (p < 0 || p >= k) f.reject(s"part $p lies outside [0, $k)")
      else if (s < 0 || s >= n || d < 0 || d >= n) f.reject(s"edge ($s, $d) has an endpoint outside [0, $n)")
      else {
        f.sums(p) += 1
        f.masks(s.toInt) |= 1L << p
        f.masks(d.toInt) |= 1L << p
      }
    }
    val verts = new Array[Long](k)
    val sync = new Array[Long](k)
    f.masks.foreach { m =>
      val shared = java.lang.Long.bitCount(m) >= 2
      var bits = m
      while (bits != 0) {
        val p = java.lang.Long.numberOfTrailingZeros(bits)
        verts(p) += 1
        if (shared) sync(p) += 1
        bits &= bits - 1
      }
    }
    val loads = (0 until k).map(p => EdgePartLoad(p, f.sums(p), verts(p), sync(p)))
    EdgeCutQuality(
      k = k,
      numVertices = g.numVertices,
      numEdges = f.sums.sum,
      replicationFactor = verts.sum.toDouble / g.numVertices,
      edgeBalance = balance(f.sums.toSeq),
      vertexBalance = balance(verts.toSeq),
      perPart = loads,
    )
  }

  /** Metrics of a vertex partitioning (edge-cut). One pass over
    * `vertexDf` reads the partition book; the driver then counts each
    * part's vertices and training vertices ([[GraphOps.isTrain]]). One
    * pass over the graph's primitive [[Graph.blocks]] sums two counts per
    * part, of local and of cut edges, each edge counted at its source's
    * part.
    *
    * The book, a `vid`-indexed part array, is broadcast, as DistDGL
    * replicates its book on every machine; it is destroyed after the pass.
    * Throws unless `vertexDf` gives every vertex in `[0, |V|)` exactly one
    * row with a part in `[0, k)`, and where [[Graph.compact]] throws.
    */
  def vertexCutQuality(
      g: Graph,
      spark: SparkSession,
      vertexDf: DataFrame,
      k: Int,
  ): VertexCutQuality = {
    val (parts, verts, trainVerts) = partitionBook(vertexDf, Math.toIntExact(g.numVertices), k)
    val book = spark.sparkContext.broadcast(parts)
    val f =
      try fold("g.blocks", g.blocks, 2 * k, 0) { (f, b) =>
        val part = book.value
        val sums = f.sums
        var i = 0
        while (i < b.src.length) {
          val s = b.src(i); val d = b.dst(i)
          if (part(s) == part(d)) sums(2 * part(s)) += 1
          else sums(2 * part(s) + 1) += 1
          i += 1
        }
      } finally book.destroy()
    val loads = (0 until k).map(p => VertexPartLoad(p, verts(p), trainVerts(p), f.sums(2 * p)))
    val cut = (0 until k).map(p => f.sums(2 * p + 1)).sum
    val numE = loads.map(_.localEdges).sum + cut
    VertexCutQuality(
      k = k,
      numVertices = g.numVertices,
      numEdges = numE,
      edgeCutRatio = if (numE == 0) 0.0 else cut.toDouble / numE,
      vertexBalance = balance(loads.map(_.verts)),
      trainVertexBalance = balance(loads.map(_.trainVerts)),
      perPart = loads,
    )
  }

  /** The part of every vertex, indexed by `vid`, from `(vid, part)` rows,
    * with the count of vertices and of training vertices in each part. One
    * [[fold]] keeps two sums per vid, its row count and its part; the
    * driver then throws on the first vid without exactly one row.
    */
  private def partitionBook(vertexDf: DataFrame, n: Int, k: Int): (Array[Int], Array[Long], Array[Long]) = {
    val rows = Graph.internalRows(vertexDf, "vertexDf", "vid" -> LongType, "part" -> IntegerType)
    val f = fold("vertexDf", rows, 2 * n, 0) { (f, r) =>
      val v = r.getLong(0)
      val p = r.getInt(1)
      if (v < 0 || v >= n) f.reject(s"vid $v lies outside [0, $n)")
      else if (p < 0 || p >= k) f.reject(s"vid $v has part $p, outside [0, $k)")
      else {
        f.sums(2 * v.toInt) += 1
        f.sums(2 * v.toInt + 1) += p
      }
    }
    val book = new Array[Int](n)
    val verts = new Array[Long](k)
    val trainVerts = new Array[Long](k)
    for (v <- book.indices) {
      require(f.sums(2 * v) > 0, s"vertexDf: vid $v has no row")
      require(f.sums(2 * v) == 1, s"vertexDf: vid $v has more than one row")
      val p = f.sums(2 * v + 1).toInt
      book(v) = p
      verts(p) += 1
      if (GraphOps.isTrain(v)) trainVerts(p) += 1
    }
    (book, verts, trainVerts)
  }

  /** One pass over `items`: each map task folds its items with `add` into
    * a [[Fold]] of `numSums` and `numMasks` zeros, and `RDD.reduce` merges
    * the folds on the driver. Throws if any item was rejected.
    */
  private def fold[T](what: String, items: RDD[T], numSums: Int, numMasks: Int)(add: (Fold, T) => Unit): Fold = {
    val f = items
      .mapPartitionsWithIndex { (task, it) =>
        val acc = new Fold(task, numSums, numMasks)
        it.foreach(add(acc, _))
        Iterator(acc)
      }
      .reduce(_ merge _)
    require(f.bad == 0, s"$what: ${f.bad} row(s) out of range, the first: ${f.first}")
    f
  }

  /** One map task's partial result: `sums`, which merging adds, `masks`,
    * which merging ORs, and the count of rejected rows with the first of
    * them described. `task` orders the folds, so that the row described
    * after a merge is the first in row order.
    */
  private final class Fold(var task: Int, numSums: Int, numMasks: Int) extends Serializable {
    val sums = new Array[Long](numSums)
    val masks = new Array[Long](numMasks)
    var bad = 0L
    var first = ""

    def reject(what: => String): Unit = {
      if (bad == 0) first = what
      bad += 1
    }

    def merge(o: Fold): Fold = {
      var i = 0
      while (i < sums.length) { sums(i) += o.sums(i); i += 1 }
      i = 0
      while (i < masks.length) { masks(i) |= o.masks(i); i += 1 }
      if (o.bad > 0 && (bad == 0 || o.task < task)) { first = o.first; task = o.task }
      bad += o.bad
      this
    }
  }

  /** max / mean — 1.0 is perfectly balanced. */
  def balance(xs: Seq[Long]): Double = {
    if (xs.isEmpty) 1.0
    else {
      val mean = xs.sum.toDouble / xs.size
      if (mean == 0.0) 1.0 else xs.max / mean
    }
  }
}
