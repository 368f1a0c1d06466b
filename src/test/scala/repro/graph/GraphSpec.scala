package repro.graph

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs}

class GraphSpec extends SparkSpec {

  private def edgePairs(blocks: Array[GraphBlock]): Seq[(Int, Int)] =
    blocks.toSeq.flatMap(b => b.src.indices.map(i => (b.src(i), b.dst(i)))).sorted

  for ((name, g, _) <- TestGraphs.all(spark)) {
    test(s"blocks hold each edge of g.edges exactly once ($name)") {
      val want = g.edges.select("src", "dst").collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).sorted
      assert(edgePairs(g.blocks.collect()) === want.toSeq)
    }
  }

  test("a block edge endpoint equal to |V| reads -1") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val bad = g.copy(edges = g.edges.union(spark.range(1).select(lit(g.numVertices) as "src", lit(0L) as "dst")))
    val pairs = edgePairs(bad.blocks.collect())
    assert(pairs.count(_._1 == GraphBlock.NoVertex) === 1)
    assert(pairs.contains((GraphBlock.NoVertex, 0)))
    assert(pairs.length === cg.numEdges + 1)
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
