package repro.graph

import org.apache.spark.sql.SparkSession
import org.apache.spark.unsafe.hash.Murmur3_x86_32

/** The training split, shared by the metrics, the partitioners and the
  * sampler.
  */
object GraphOps {

  /** Seed of the training split; every metric and sampler reads the same
    * split.
    */
  private val splitSeed = 42

  /** The seed Spark SQL's `hash` starts from. */
  private val sparkHashSeed = 42

  /** The paper's 10% training split: whether vertex `vid` is a training
    * vertex, chosen by a seeded hash of its id. The one definition every
    * metric, sampler and partitioner reads. It is Spark SQL's
    * `pmod(hash(vid, splitSeed), 10) = 0`, computed with Spark's own
    * Murmur3, so a Spark plan can select the same split.
    */
  def isTrain(vid: Long): Boolean =
    Math.floorMod(Murmur3_x86_32.hashInt(splitSeed, Murmur3_x86_32.hashLong(vid, sparkHashSeed)), 10) == 0

  /** Train-vertex flags as a driver array, for the driver-side partitioners
    * and `FastSampler`. Runs no Spark job; `spark` is not read.
    */
  def trainMask(g: Graph, spark: SparkSession): Array[Boolean] =
    Array.tabulate(Math.toIntExact(g.numVertices))(v => isTrain(v))
}
