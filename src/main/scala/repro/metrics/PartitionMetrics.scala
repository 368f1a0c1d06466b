package repro.metrics

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
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
  * Each metric is one Spark SQL aggregate ending in one `collect`. Every
  * metric here has a DuckDB oracle test.
  *
  * The `collect` goes through `.rdd`, so no SQL execution is recorded per
  * call: Spark's listener threads keep the last recorded execution, with its
  * whole plan and the assignment rows in it, reachable until the next event.
  */
object PartitionMetrics {

  /** Metrics of an edge partitioning (vertex-cut). Each edge end becomes a
    * `(part, vid)` row; grouping those rows gives the covered vertices of
    * each part, with the part's edges counted once, at their source.
    */
  def edgeCutQuality(g: Graph, edgeDf: DataFrame, k: Int): EdgeCutQuality = {
    val rows = edgeDf
      .select(col("part"), posexplode(array(col("src"), col("dst"))) as Seq("end", "vid"))
      .groupBy("part", "vid")
      .agg(sum((col("end") === 0).cast(LongType)) as "e")
      .withColumn("r", count(lit(1)).over(Window.partitionBy("vid")))
      .groupBy("part")
      .agg(
        sum("e") as "edges",
        count(lit(1)) as "verts",
        sum((col("r") >= 2).cast(LongType)) as "syncVerts",
      )
      .rdd
      .collect()
    val loads = perPart(rows, k, "edges", "verts", "syncVerts")(EdgePartLoad.apply)
    val sumV = loads.map(_.verts).sum
    EdgeCutQuality(
      k = k,
      numVertices = g.numVertices,
      numEdges = loads.map(_.edges).sum,
      replicationFactor = sumV.toDouble / g.numVertices,
      edgeBalance = balance(loads.map(_.edges)),
      vertexBalance = balance(loads.map(_.verts)),
      perPart = loads,
    )
  }

  /** Metrics of a vertex partitioning (edge-cut). One row per vertex (with
    * its [[GraphOps.isTrain]] flag) and one row per edge (at its source's
    * part) feed a single `groupBy(part)`.
    *
    * Each edge finds its endpoints' parts in a partition book, `vertexDf`
    * read into a `vid`-indexed array and broadcast, as DistDGL replicates
    * its book on every machine. So the edge table is scanned in place, and
    * the only shuffle carries each map task's partial aggregate. The book is
    * destroyed once the aggregate is collected. Throws if `vertexDf` does
    * not give every vertex in `[0, |V|)` exactly one row.
    */
  def vertexCutQuality(
      g: Graph,
      spark: SparkSession,
      vertexDf: DataFrame,
      k: Int,
  ): VertexCutQuality = {
    val book = spark.sparkContext.broadcast(partitionBook(vertexDf, g.numVertices))
    val partOf = udf((vid: Long) => book.value(vid.toInt))
    val vertexRows = vertexDf
      .select(col("part"), lit(1L) as "v", GraphOps.isTrain(col("vid")).cast(LongType) as "t",
        lit(0L) as "local", lit(0L) as "cut")
    val local = col("psrc") === col("pdst")
    val edgeRows = g.edges
      .select(partOf(col("src")) as "psrc", partOf(col("dst")) as "pdst")
      .select(col("psrc") as "part", lit(0L) as "v", lit(0L) as "t",
        local.cast(LongType) as "local", (!local).cast(LongType) as "cut")
    val byPart = vertexRows
      .union(edgeRows)
      .groupBy("part")
      .agg(sum("v") as "verts", sum("t") as "trainVerts", sum("local") as "localEdges",
        sum("cut") as "cut")
    val rows = try byPart.rdd.collect() finally book.destroy()
    val loads = perPart(rows, k, "verts", "trainVerts", "localEdges")(VertexPartLoad.apply)
    val cut = rows.map(_.getAs[Long]("cut")).sum
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

  /** The part of every vertex, indexed by `vid`, from `(vid, part)` rows.
    * Throws unless every vid in `[0, n)` has exactly one row.
    */
  private def partitionBook(vertexDf: DataFrame, n: Long): Array[Int] = {
    val book = new Array[Int](Math.toIntExact(n))
    val seen = new Array[Boolean](book.length)
    vertexDf.select("vid", "part").rdd.collect().foreach { r =>
      val v = r.getLong(0)
      require(v >= 0 && v < n, s"vertexDf: vid $v lies outside [0, $n)")
      require(!seen(v.toInt), s"vertexDf: vid $v has more than one row")
      seen(v.toInt) = true
      book(v.toInt) = r.getInt(1)
    }
    val missing = seen.indexOf(false)
    require(missing < 0, s"vertexDf: vid $missing has no row")
    book
  }

  /** One load per partition, in part order, from aggregated `(part, a, b, c)`
    * rows. Parts in 0 until k without a row get zero loads: empty partitions
    * still count toward the balance denominators. Throws on a part outside
    * `[0, k)`, which would otherwise count as an extra partition.
    */
  private def perPart[L](rows: Array[Row], k: Int, a: String, b: String, c: String)(
      load: (Int, Long, Long, Long) => L,
  ): Seq[L] = {
    val got = rows.map { r =>
      val p = r.getAs[Int]("part")
      require(p >= 0 && p < k, s"part $p lies outside [0, $k)")
      p -> (r.getAs[Long](a), r.getAs[Long](b), r.getAs[Long](c))
    }.toMap
    (0 until k).map { p =>
      val (x, y, z) = got.getOrElse(p, (0L, 0L, 0L))
      load(p, x, y, z)
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
