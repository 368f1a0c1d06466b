package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

class GraphOpsSpec extends SparkSpec {

  test("adjacency of an undirected graph has 2|E| rows") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(GraphOps.adjacency(g).count() === 2 * g.numEdges)
  }

  test("adjacency of a directed graph has |E| rows (in-neighbors)") {
    val (g, _) = TestGraphs.smallWeb(spark)
    assert(GraphOps.adjacency(g).count() === g.numEdges)
  }

  test("adjacency of a directed graph matches the oracle") {
    val (g, _) = TestGraphs.smallWeb(spark)
    Oracle.assertEquivalent(
      GraphOps.adjacency(g),
      "SELECT dst AS v, src AS nbr FROM edges",
      "edges" -> g.edges,
    )
  }

  test("split covers every vertex exactly once") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val s = GraphOps.split(g, spark)
    assert(s.count() === g.numVertices)
    assert(s.select("vid").distinct().count() === g.numVertices)
  }

  test("split proportions are ~10/10/80") {
    val (g, _) = TestGraphs.smallGrid(spark) // 400 vertices
    val byRole = GraphOps.split(g, spark).groupBy("role").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val n = g.numVertices.toDouble
    assert(byRole("train") / n > 0.05 && byRole("train") / n < 0.15)
    assert(byRole("val") / n > 0.05 && byRole("val") / n < 0.15)
    assert(byRole("test") / n > 0.70)
  }

  test("split is deterministic in the seed") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val a = GraphOps.split(g, spark)
    val b = GraphOps.split(g, spark)
    assert(a.except(b).count() === 0)
  }

  test("compact fails loudly when numVertices does not fit in an Int") {
    val noEdges = spark.range(0).select(col("id") as "src", col("id") as "dst")
    val g = Graph("huge", "Web", directed = true, Int.MaxValue + 1L, noEdges)
    intercept[ArithmeticException](g.compact())
  }

  test("compact fails loudly on an endpoint outside [0, numVertices)") {
    import spark.implicits._
    // 4294967297 would narrow to vertex 1 if it were cast to Int unchecked.
    for (bad <- Seq(4L, 4294967297L)) {
      val g = Graph("bad", "Web", directed = true, 4, Seq((0L, bad)).toDF("src", "dst"))
      val e = intercept[IllegalArgumentException](g.compact())
      assert(e.getMessage.contains(s"(0, $bad)"))
    }
  }

  test("trainMask agrees with split") {
    val (g, _) = TestGraphs.smallGrid(spark)
    val mask = GraphOps.trainMask(g, spark)
    val trainSet = GraphOps.split(g, spark).filter(col("role") === "train")
      .select("vid").collect().map(_.getLong(0).toInt).toSet
    mask.zipWithIndex.foreach { case (m, v) => assert(m === trainSet.contains(v)) }
  }
}
