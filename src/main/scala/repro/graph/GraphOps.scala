package repro.graph

import org.apache.spark.sql.{Column, SparkSession}
import org.apache.spark.sql.functions._

/** The training split, shared by the metrics, the partitioners and the
  * sampler.
  */
object GraphOps {

  /** Seed of the training split; every metric and sampler reads the same
    * split.
    */
  private val splitSeed = 42

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
