package repro.graph

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
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
      // and so are the rows of g.edges
      assert(g.edges.schema.map(f => f.name -> f.dataType) === Seq("src" -> LongType, "dst" -> LongType))
      val rows = g.edges.collect()
      assert(rows.map(_.getLong(0)).toSeq === cg.src.map(_.toLong).toSeq)
      assert(rows.map(_.getLong(1)).toSeq === cg.dst.map(_.toLong).toSeq)
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

  test("fromEdges throws on an edge endpoint equal to |V|, naming the edge") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val edges = g.edges.union(spark.range(1).select(lit(g.numVertices) as "src", lit(0L) as "dst"))
    val e = intercept[IllegalArgumentException](Graph.fromEdges("bad", g.directed, g.numVertices, edges))
    assert(e.getMessage.contains(s"edge (${g.numVertices}, 0)"), e.getMessage)
  }

  test("fromEdges over a subset of g.edges holds that subset, in its own blocks") {
    val (g, _) = TestGraphs.smallWeb(spark)
    val edges = g.edges.filter(col("src") =!= 0)
    val fewer = Graph.fromEdges("fewer", g.directed, g.numVertices, edges)
    val want = edges.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSeq
    assert(want.length < g.numEdges)
    assert(edgePairs(fewer.compact().src, fewer.compact().dst) === want)
    assert(fewer.blocks.id != g.blocks.id)
    assert(fewer.blocks.collect().flatMap(b => edgePairs(b.src, b.dst)).toSeq === want)
  }
}
