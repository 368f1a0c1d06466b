package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame-level graph operations shared by the metrics and the Spark
  * sampler.
  */
object GraphOps {

  /** Seed of the training split; every metric and sampler reads the same
    * split.
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

  /** The paper's 10% training split: whether vertex `vid` is a training
    * vertex, chosen by a seeded hash of its id. The one definition every
    * metric, sampler and partitioner reads.
    */
  def isTrain(vid: Column): Column = pmod(hash(vid, lit(splitSeed)), lit(10)) === 0

  /** Train-vertex flags as a driver array, for the driver-side partitioners
    * and `FastSampler`.
    */
  def trainMask(g: Graph, spark: SparkSession): Array[Boolean] = {
    val mask = new Array[Boolean](Math.toIntExact(g.numVertices))
    spark.range(g.numVertices)
      .filter(isTrain(col("id")))
      .collect()
      .foreach(id => mask(id.toInt) = true)
    mask
  }
}
