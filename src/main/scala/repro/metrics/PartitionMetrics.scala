package repro.metrics

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
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

/** Partition-quality metrics, computed with Spark SQL aggregations over the
  * assignment DataFrames (`(src, dst, part)` for edge partitionings,
  * `(vid, part)` for vertex partitionings). Every metric here has a DuckDB
  * oracle test.
  */
object PartitionMetrics {

  /** Covered vertices per partition: `(part, vid)` distinct. */
  def covers(edgeDf: DataFrame): DataFrame =
    edgeDf
      .select(col("part"), col("src") as "vid")
      .union(edgeDf.select(col("part"), col("dst") as "vid"))
      .distinct()

  /** Metrics of an edge partitioning (vertex-cut). */
  def edgeCutQuality(g: Graph, edgeDf: DataFrame, k: Int): EdgeCutQuality = {
    val cov = covers(edgeDf).cache()
    val copies = cov.groupBy("vid").agg(count(lit(1)) as "r")
    val perPartRows = edgeDf
      .groupBy("part")
      .agg(count(lit(1)) as "edges")
      .join(cov.groupBy("part").agg(count(lit(1)) as "verts"), Seq("part"), "outer")
      .join(
        cov
          .join(copies.filter(col("r") >= 2), Seq("vid"))
          .groupBy("part")
          .agg(count(lit(1)) as "syncVerts"),
        Seq("part"),
        "outer",
      )
      .na
      .fill(0L)
      .collect()
    cov.unpersist()
    val loads = perPart(perPartRows, k, "edges", "verts", "syncVerts")(EdgePartLoad.apply)
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

  /** Metrics of a vertex partitioning (edge-cut). */
  def vertexCutQuality(
      g: Graph,
      spark: SparkSession,
      vertexDf: DataFrame,
      k: Int,
  ): VertexCutQuality = {
    val sp = vertexDf.withColumnRenamed("vid", "src").withColumnRenamed("part", "psrc")
    val dp = vertexDf.withColumnRenamed("vid", "dst").withColumnRenamed("part", "pdst")
    val edgesP = g.edges.join(sp, "src").join(dp, "dst").cache()
    val numE = edgesP.count()
    val cut = edgesP.filter(col("psrc") =!= col("pdst")).count()
    val localEdges = edgesP
      .filter(col("psrc") === col("pdst"))
      .groupBy(col("psrc") as "part")
      .agg(count(lit(1)) as "localEdges")
    val train = GraphOps
      .split(g, spark)
      .filter(col("role") === "train")
      .join(vertexDf, "vid")
      .groupBy("part")
      .agg(count(lit(1)) as "trainVerts")
    val perPartRows = vertexDf
      .groupBy("part")
      .agg(count(lit(1)) as "verts")
      .join(train, Seq("part"), "outer")
      .join(localEdges, Seq("part"), "outer")
      .na
      .fill(0L)
      .collect()
    edgesP.unpersist()
    val loads = perPart(perPartRows, k, "verts", "trainVerts", "localEdges")(VertexPartLoad.apply)
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

  /** One load per partition, in part order, from aggregated `(part, a, b, c)`
    * rows. Parts in 0 until k without a row get zero loads: empty partitions
    * still count toward the balance denominators.
    */
  private def perPart[L](rows: Array[Row], k: Int, a: String, b: String, c: String)(
      load: (Int, Long, Long, Long) => L,
  ): Seq[L] = {
    val got = rows.map { r =>
      r.getAs[Int]("part") -> (r.getAs[Long](a), r.getAs[Long](b), r.getAs[Long](c))
    }.toMap
    (got.keySet ++ (0 until k)).toSeq.sorted.map { p =>
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
