package repro.graph

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs}
import repro.partition.PartitionBridge

class GraphSpec extends SparkSpec {

  private def edgePairs(src: Array[Int], dst: Array[Int]): Seq[(Int, Int)] =
    src.indices.map(i => (src(i), dst(i)))

  for ((name, g, _) <- TestGraphs.all(spark)) {
    test(s"blocks hold each edge of g.edges exactly once ($name)") {
      val blocks = g.blocks.collect()
      val cg = g.compact()
      // the concatenated blocks are the CSR's edges, in order
      assert(blocks.flatMap(_.src).toSeq === cg.src.toSeq)
      assert(blocks.flatMap(_.dst).toSeq === cg.dst.toSeq)
      val want = g.edges.select("src", "dst").collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).sorted
      assert(edgePairs(cg.src, cg.dst).sorted === want.toSeq)
    }
  }

  test("block i holds the edges of partition i of PartitionBridge.edgeDf") {
    val (g, cg) = TestGraphs.smallWeb(spark)
    val bridged = PartitionBridge.edgeDf(spark, cg, new Array[Int](cg.numEdges))
      .select("src", "dst").rdd
      .glom().collect()
      .map(_.toSeq.map(r => (r.getLong(0).toInt, r.getLong(1).toInt)))
    val blocks = g.blocks.collect().map(b => edgePairs(b.src, b.dst))
    assert(blocks.length === spark.sparkContext.defaultParallelism)
    assert(blocks.toSeq === bridged.toSeq)
  }

  test("blocks throw on an edge endpoint equal to |V|, naming the edge") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val bad = g.copy(edges = g.edges.union(spark.range(1).select(lit(g.numVertices) as "src", lit(0L) as "dst")))
    val e = intercept[IllegalArgumentException](bad.blocks)
    assert(e.getMessage.contains(s"edge (${g.numVertices}, 0)"), e.getMessage)
  }

  test("a copy with other edges does not reuse the parent's blocks") {
    val (g, _) = TestGraphs.smallWeb(spark)
    g.blocks.count()
    val fewer = g.copy(edges = g.edges.filter(col("src") =!= 0))
    assert(fewer.blocks.id != g.blocks.id)
    assert(fewer.blocks.map(_.src.length.toLong).sum() === fewer.edges.count())
    assert(fewer.edges.count() < g.numEdges)
  }
}
