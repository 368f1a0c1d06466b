package repro.partition

import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.graph.CompactGraph

class PartitionBridgeSpec extends SparkSpec {

  /** Row counts around the slice boundaries: none, one, fewer than slices,
    * and counts that the slice count does not divide.
    */
  private def sizes: Seq[Int] = {
    val slices = spark.sparkContext.defaultParallelism
    Seq(0, 1, 3, slices - 1, 5 * slices + 1).distinct
  }

  /** A multigraph on 5 vertices, so the same `(src, dst)` repeats. */
  private def multigraph(n: Int): (CompactGraph, Array[Int]) = {
    val rnd = new scala.util.Random(n)
    val src = Array.fill(n)(rnd.nextInt(5))
    val dst = Array.fill(n)(rnd.nextInt(5))
    (new CompactGraph(5, src, dst, directed = true), Array.fill(n)(rnd.nextInt(4)))
  }

  test("edgeDf has one row per edge, with its endpoints and part") {
    val schema = StructType(Seq(
      StructField("src", LongType, nullable = false),
      StructField("dst", LongType, nullable = false),
      StructField("part", IntegerType, nullable = false),
    ))
    for (n <- sizes) withClue(s"n = $n: ") {
      val (cg, assign) = multigraph(n)
      val df = PartitionBridge.edgeDf(spark, cg, assign)
      assert(df.schema === schema)
      val got = df.collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).sorted.toSeq
      val want = cg.src.indices.map(i => (cg.src(i).toLong, cg.dst(i).toLong, assign(i))).sorted
      assert(got === want)
    }
  }

  test("vertexDf has one row per vertex, with its part") {
    val schema = StructType(Seq(
      StructField("vid", LongType, nullable = false),
      StructField("part", IntegerType, nullable = false),
    ))
    for (n <- sizes) withClue(s"n = $n: ") {
      val assign = Array.tabulate(n)(v => (v * 7 + 3) % 4)
      val df = PartitionBridge.vertexDf(spark, assign)
      assert(df.schema === schema)
      val got = df.collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1).toSeq
      assert(got === assign.indices.map(v => (v.toLong, assign(v))))
    }
  }
}
