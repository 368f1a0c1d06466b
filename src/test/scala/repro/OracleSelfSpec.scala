package repro

import org.apache.spark.sql.functions._

/** Sanity checks of the DuckDB oracle — the correctness infrastructure
  * every metric test relies on — over a small test graph's edge table.
  */
class OracleSelfSpec extends SparkSpec {

  private val outDegreeSql = "SELECT src, COUNT(*) AS cnt FROM edges GROUP BY src"

  private def edges = TestGraphs.smallWeb(spark)._1.edges

  test("oracle agrees on a simple aggregate over edges") {
    Oracle.assertEquivalent(edges.groupBy("src").agg(count(lit(1)) as "cnt"), outDegreeSql, "edges" -> edges)
  }

  test("oracle catches a wrong result") {
    val wrong = edges.groupBy("src").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, outDegreeSql, "edges" -> edges)
    }
  }

  test("oracle catches a column-name mismatch") {
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(edges.groupBy("src").agg(count(lit(1)) as "wrong_name"), outDegreeSql, "edges" -> edges)
    }
  }
}
