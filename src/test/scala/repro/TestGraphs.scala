package repro

import org.apache.spark.sql.SparkSession
import repro.graph.{CompactGraph, Graph, GraphGen}

/** Small deterministic graphs shared by the unit-test suites, each with
  * its driver CSR (memoized so the generation happens once per JVM; Spark
  * keeps no copy of them).
  */
object TestGraphs {
  private val cache = scala.collection.concurrent.TrieMap.empty[String, (Graph, CompactGraph)]

  private def memo(key: String)(mk: => Graph): (Graph, CompactGraph) =
    cache.getOrElseUpdate(key, { val g = mk; (g, g.compact()) })

  /** ~500 vertices / ~3000 edges, skewed, undirected. */
  def smallPowerLaw(spark: SparkSession): (Graph, CompactGraph) =
    memo("smallPL")(GraphGen.powerLaw(spark, "PL", 500, 3000, 0.8, directed = false, seed = 1))

  /** ~400 vertices / ~2500 edges, heavily skewed, directed (web-like). */
  def smallWeb(spark: SparkSession): (Graph, CompactGraph) =
    memo("smallWeb")(GraphGen.powerLaw(spark, "WEB", 400, 2500, 1.1, directed = true, seed = 2))

  /** 20×20 grid + 40 shortcuts, directed (road-like). */
  def smallGrid(spark: SparkSession): (Graph, CompactGraph) =
    memo("smallGrid")(GraphGen.grid(spark, "GRID", 20, 20, 40, directed = true, seed = 3))

  /** All three families, keyed for parametrized suites. */
  def all(spark: SparkSession): Seq[(String, Graph, CompactGraph)] = Seq(
    { val (g, c) = smallPowerLaw(spark); ("powerLaw", g, c) },
    { val (g, c) = smallWeb(spark); ("web", g, c) },
    { val (g, c) = smallGrid(spark); ("grid", g, c) },
  )
}
