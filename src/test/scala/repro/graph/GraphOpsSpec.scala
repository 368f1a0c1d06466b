package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.distdgl.SparkSampler

class GraphOpsSpec extends SparkSpec {

  test("adjacency of an undirected graph has 2|E| rows") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(SparkSampler.adjacency(g).count() === 2 * g.numEdges)
  }

  test("adjacency of a directed graph has |E| rows (in-neighbors)") {
    val (g, _) = TestGraphs.smallWeb(spark)
    assert(SparkSampler.adjacency(g).count() === g.numEdges)
  }

  test("adjacency of a directed graph matches the oracle") {
    import spark.implicits._
    val (g, cg) = TestGraphs.smallWeb(spark)
    // the driver in-CSR the sampler reads, as (v, nbr) rows
    val csr = (0 until cg.numVertices)
      .flatMap(v => (cg.inOff(v) until cg.inOff(v + 1)).map(i => (v.toLong, cg.inNbr(i).toLong)))
      .toDF("v", "nbr")
    for (adj <- Seq(SparkSampler.adjacency(g), csr))
      Oracle.assertEquivalent(adj, "SELECT dst AS v, src AS nbr FROM edges", "edges" -> g.edges)
  }

  test("about 10% of the vertices are training vertices") {
    val (g, _) = TestGraphs.smallGrid(spark) // 400 vertices
    val mask = GraphOps.trainMask(g, spark)
    assert(mask.length === g.numVertices)
    val frac = mask.count(identity).toDouble / mask.length
    assert(frac > 0.05 && frac < 0.15, s"train fraction $frac")
  }

  test("the driver isTrain selects the ids the Spark split column selects") {
    val want = spark.range(0, 1000000).filter(SparkSampler.isTrain(col("id"))).collect().map(_.longValue)
    val got = (0L until 1000000L).filter(GraphOps.isTrain)
    assert(want.length === 99896)
    assert(got === want.toSeq.sorted)
  }

  test("trainMask starts no Spark job") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val (jobs, _) = sparkWork(GraphOps.trainMask(g, spark))
    assert(jobs.isEmpty, s"tasks per job: $jobs")
  }

  test("compact fails loudly when numVertices does not fit in an Int") {
    val noEdges = spark.range(0).select(col("id") as "src", col("id") as "dst")
    intercept[ArithmeticException](Graph.fromEdges("huge", directed = true, Int.MaxValue + 1L, noEdges))
  }

  test("compact fails loudly on an endpoint outside [0, numVertices)") {
    import spark.implicits._
    // 4294967297 would narrow to vertex 1 if it were cast to Int unchecked.
    for (bad <- Seq(4L, 4294967297L)) {
      val e = intercept[IllegalArgumentException](Graph.fromEdges("bad", directed = true, 4, Seq((0L, bad)).toDF("src", "dst")))
      assert(e.getMessage.contains(s"(0, $bad)"))
    }
  }
}
