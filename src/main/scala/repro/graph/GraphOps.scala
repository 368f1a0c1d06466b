package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame-level graph operations shared by the metrics and the Spark
  * sampler.
  */
object GraphOps {

  /** Seed of the train/val/test split; every metric and sampler reads the
    * same split.
    */
  private val splitSeed = 42

  /** Message-passing adjacency `(v, nbr)`: the neighbors whose state `v`
    * aggregates. For directed graphs a vertex aggregates its in-neighbors
    * (GNN convention: messages flow along edge direction); for undirected
    * graphs both directions are present.
    */
  def adjacency(g: Graph): DataFrame = {
    val in = g.edges.select(col("dst") as "v", col("src") as "nbr")
    if (g.directed) in
    else in.union(g.edges.select(col("src") as "v", col("dst") as "nbr"))
  }

  /** The paper's split: 10% train / 10% val / 80% test, chosen by a seeded
    * hash of the vertex id. Returns `(vid, role)` with role in
    * {train, val, test}.
    */
  def split(g: Graph, spark: SparkSession): DataFrame = {
    val bucket = pmod(hash(col("vid"), lit(splitSeed)), lit(10))
    g.vertices(spark)
      .select(
        col("vid"),
        when(bucket === 0, "train").when(bucket === 1, "val").otherwise("test") as "role",
      )
  }

  /** Train-vertex flags as a driver array (for ByteGNN-style partitioning). */
  def trainMask(g: Graph, spark: SparkSession): Array[Boolean] = {
    val mask = new Array[Boolean](Math.toIntExact(g.numVertices))
    split(g, spark)
      .filter(col("role") === "train")
      .select("vid")
      .collect()
      .foreach(r => mask(r.getLong(0).toInt) = true)
    mask
  }
}
