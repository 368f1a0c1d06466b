package repro.graph

import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestGraphs}

class GraphGenSpec extends SparkSpec {

  test("powerLaw: vertex ids are dense in [0, numV)") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val mm = g.edges.agg(min("src"), max("src"), min("dst"), max("dst")).head()
    assert(mm.getLong(0) >= 0 && mm.getLong(1) < g.numVertices)
    assert(mm.getLong(2) >= 0 && mm.getLong(3) < g.numVertices)
  }

  test("powerLaw: no self loops") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(g.edges.filter(col("src") === col("dst")).count() === 0)
  }

  test("powerLaw: no duplicate edges") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(g.edges.count() === g.edges.dropDuplicates("src", "dst").count())
  }

  test("powerLaw: undirected edges canonicalized src < dst") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(g.edges.filter(col("src") >= col("dst")).count() === 0)
  }

  test("powerLaw: directed graphs may have src > dst") {
    val (g, _) = TestGraphs.smallWeb(spark)
    assert(g.edges.filter(col("src") > col("dst")).count() > 0)
  }

  test("powerLaw: edge count close to the target") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(g.numEdges > 2000 && g.numEdges <= 3000)
  }

  test("powerLaw: refuses more edges than vertex pairs, naming the graph") {
    // HW at scale 0.1: 200 vertices, 19,900 pairs, 22,900 edges asked for
    val e = intercept[IllegalArgumentException](Datasets.load(spark, "HW", scale = 0.1))
    assert(e.getMessage.contains("HW") && e.getMessage.contains("22900") && e.getMessage.contains("19900"), e.getMessage)
  }

  test("powerLaw: deterministic in the seed") {
    val a = GraphGen.powerLaw(spark, "A", 200, 800, 0.9, directed = false, seed = 5)
    val b = GraphGen.powerLaw(spark, "B", 200, 800, 0.9, directed = false, seed = 5)
    assert(a.edges.except(b.edges).count() === 0)
    assert(b.edges.except(a.edges).count() === 0)
  }

  test("powerLaw: different seeds give different graphs") {
    val a = GraphGen.powerLaw(spark, "A", 200, 800, 0.9, directed = false, seed = 5)
    val b = GraphGen.powerLaw(spark, "B", 200, 800, 0.9, directed = false, seed = 6)
    assert(a.edges.except(b.edges).count() > 0)
  }

  test("powerLaw: the same graph under any leaf-node parallelism") {
    val conf = "spark.sql.leafNodeDefaultParallelism"
    def edgesAt(parallelism: Int): Set[(Long, Long)] =
      try {
        spark.conf.set(conf, parallelism.toLong)
        val g = GraphGen.powerLaw(spark, "P", 200, 800, 0.9, directed = true, seed = 5)
        val edges = g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
        g.edges.unpersist()
        edges
      } finally spark.conf.unset(conf)
    val (a, b) = (edgesAt(2), edgesAt(7))
    // compare counts, so that a failure does not print both edge sets
    val differ = (a diff b).size + (b diff a).size
    assert(differ === 0, s"edges differ between the two graphs of ${a.size} and ${b.size} edges")
  }

  test("powerLaw: only the returned edge table stays cached") {
    val before = spark.sparkContext.getPersistentRDDs.keySet
    // 1000 of the 1770 possible edges on 60 vertices: the first round's
    // skewed draws collapse under dedup below the target, so a top-up round runs.
    val g = GraphGen.powerLaw(spark, "T", 60, 1000, 0.9, directed = false, seed = 9)
    assert((spark.sparkContext.getPersistentRDDs.keySet -- before).size === 1)
    assert(g.edges.storageLevel !== StorageLevel.NONE)
  }

  test("powerLaw: throws when its rounds end short of the edge target") {
    // 4 undirected vertices have at most 6 distinct edges
    val e = intercept[IllegalArgumentException] {
      GraphGen.powerLaw(spark, "SHORT", 4, 100, 0.9, directed = false, seed = 3)
    }
    assert(e.getMessage.contains("SHORT") && e.getMessage.contains("numE = 100"), e.getMessage)
  }

  test("powerLaw: degree distribution is skewed (hub much above mean)") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val mean = cg.meanDegree
    assert(cg.degree.max > 5 * mean, s"max=${cg.degree.max} mean=$mean")
  }

  test("grid: low max degree and near-zero skew") {
    val (_, cg) = TestGraphs.smallGrid(spark)
    assert(cg.degree.max <= 10, s"road analog should have small max degree, got ${cg.degree.max}")
  }

  test("grid: lattice edge count matches 2rc - r - c plus shortcuts") {
    val g = GraphGen.grid(spark, "G", 10, 10, 0, directed = false, seed = 1)
    assert(g.numEdges === 2 * 10 * 10 - 10 - 10)
  }

  test("grid: vertex ids dense") {
    val (g, _) = TestGraphs.smallGrid(spark)
    val mm = g.edges.agg(max(greatest(col("src"), col("dst")))).head().getLong(0)
    assert(mm < g.numVertices)
  }

  test("compact round trip preserves edge multiset") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    assert(cg.numEdges.toLong === g.numEdges)
    assert(cg.numVertices.toLong === g.numVertices)
  }

  test("compact adjacency is symmetric (undirected view) and consistent") {
    val (_, cg) = TestGraphs.smallPowerLaw(spark)
    assert(cg.adjOff.last === 2 * cg.numEdges)
    // every edge appears once from each side
    def neighbors(v: Int) = cg.adjNbr.slice(cg.adjOff(v), cg.adjOff(v + 1))
    assert(neighbors(cg.src(0)).contains(cg.dst(0)))
    assert(neighbors(cg.dst(0)).contains(cg.src(0)))
  }

  test("compact degrees sum to 2|E|") {
    val (_, cg) = TestGraphs.smallGrid(spark)
    assert(cg.degree.map(_.toLong).sum === 2L * cg.numEdges)
  }
}
