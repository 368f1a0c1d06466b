package repro.metrics

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.GraphOps
import repro.partition._
import repro.partition.edge.RandomEdge
import repro.partition.vertex.RandomVertex

class PartitionMetricsSpec extends SparkSpec {

  test("replication factor equals oracle sum(|V(p)|)/|V|") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 4, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 4)
    // oracle: compute RF in DuckDB through a one-row comparison
    val rfDf = spark.createDataFrame(Seq(Tuple1(q.replicationFactor))).toDF("rf")
    Oracle.assertEquivalent(
      rfDf.select(round(col("rf") * 10000).cast("long") as "rf"),
      s"""SELECT CAST(ROUND(10000.0 * COUNT(*) / ${g.numVertices}) AS BIGINT) AS rf
         |FROM (SELECT DISTINCT part, vid FROM (
         |  SELECT part, src AS vid FROM ep UNION ALL SELECT part, dst AS vid FROM ep))""".stripMargin,
      "ep" -> df,
    )
  }

  // a random assignment at k=4, and the same folded onto parts {0, 2} so
  // that the empty parts 1 and 3 must be padded in the middle
  private val assignments: Seq[(String, Array[Int] => Array[Int])] = Seq(
    "random k=4" -> identity,
    "parts {0, 2} of k=4" -> (_.map(p => 2 * (p % 2))),
  )

  for ((name, reshape) <- assignments) {
    test(s"edgeCutQuality perPart matches the DuckDB oracle ($name)") {
      val (g, cg) = TestGraphs.smallPowerLaw(spark)
      val df = PartitionBridge.edgeDf(spark, cg, reshape(RandomEdge.partition(cg, 4, 3).part))
      val q = PartitionMetrics.edgeCutQuality(g, df, 4)
      Oracle.assertEquivalent(
        spark.createDataFrame(q.perPart),
        """WITH cov AS (SELECT DISTINCT CAST(part AS INTEGER) AS part, vid FROM (
          |  SELECT part, src AS vid FROM ep UNION ALL SELECT part, dst AS vid FROM ep)),
          |r AS (SELECT vid, COUNT(*) AS c FROM cov GROUP BY vid)
          |SELECT p.part AS part,
          |  (SELECT COUNT(*) FROM ep WHERE CAST(ep.part AS INTEGER) = p.part) AS edges,
          |  (SELECT COUNT(*) FROM cov WHERE cov.part = p.part) AS verts,
          |  (SELECT COUNT(*) FROM cov JOIN r ON cov.vid = r.vid
          |   WHERE r.c >= 2 AND cov.part = p.part) AS syncVerts
          |FROM (SELECT CAST(range AS INTEGER) AS part FROM range(4)) p""".stripMargin,
        "ep" -> df,
      )
    }

    test(s"vertexCutQuality perPart matches the DuckDB oracle ($name)") {
      val (g, cg) = TestGraphs.smallWeb(spark)
      val assign = RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 3).part
      val vdf = PartitionBridge.vertexDf(spark, reshape(assign))
      val q = PartitionMetrics.vertexCutQuality(g, spark, vdf, 4)
      val train = GraphOps.trainMask(g, spark).zipWithIndex.collect { case (true, v) => v.toLong }
      Oracle.assertEquivalent(
        spark.createDataFrame(q.perPart),
        """WITH vp AS (SELECT vid, CAST(part AS INTEGER) AS part FROM vp_raw)
          |SELECT p.part AS part,
          |  (SELECT COUNT(*) FROM vp WHERE vp.part = p.part) AS verts,
          |  (SELECT COUNT(*) FROM vp JOIN train t ON vp.vid = t.vid
          |   WHERE vp.part = p.part) AS trainVerts,
          |  (SELECT COUNT(*) FROM edges e JOIN vp a ON e.src = a.vid JOIN vp b ON e.dst = b.vid
          |   WHERE a.part = p.part AND b.part = p.part) AS localEdges
          |FROM (SELECT CAST(range AS INTEGER) AS part FROM range(4)) p""".stripMargin,
        "edges" -> g.edges,
        "vp_raw" -> vdf,
        "train" -> spark.createDataFrame(train.toSeq.map(Tuple1(_))).toDF("vid"),
      )
    }
  }

  test("edge balance >= 1 and vertex balance >= 1") {
    val (g, cg) = TestGraphs.smallWeb(spark)
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 8, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 8)
    assert(q.edgeBalance >= 1.0 && q.vertexBalance >= 1.0)
  }

  test("edge quality per-part loads cover all k partitions and sum to |E|") {
    val (g, cg) = TestGraphs.smallGrid(spark)
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 8, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 8)
    assert(q.perPart.size === 8)
    assert(q.perPart.map(_.edges).sum === g.numEdges)
  }

  test("replication factor of a single partition is ~coverage/|V| <= 1") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val df = PartitionBridge.edgeDf(spark, cg, Array.fill(cg.numEdges)(0))
    val q = PartitionMetrics.edgeCutQuality(g, df, 1)
    assert(q.replicationFactor <= 1.0 + 1e-9)
    assert(q.perPart.head.syncVerts === 0) // nothing replicated
  }

  test("edge-cut ratio matches the DuckDB oracle") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 3).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    val q = PartitionMetrics.vertexCutQuality(g, spark, vdf, 4)
    val cutDf = spark.createDataFrame(Seq(Tuple1(math.round(q.edgeCutRatio * g.numEdges)))).toDF("cut")
    Oracle.assertEquivalent(
      cutDf,
      """SELECT COUNT(*) AS cut FROM edges e
        |JOIN vp a ON e.src = a.vid JOIN vp b ON e.dst = b.vid
        |WHERE a.part <> b.part""".stripMargin,
      "edges" -> g.edges,
      "vp" -> vdf,
    )
  }

  test("vertex-cut quality: per-part vertex counts sum to |V|") {
    val (g, cg) = TestGraphs.smallGrid(spark)
    val assign = RandomVertex.partition(cg, 8, new Array[Boolean](cg.numVertices), 3).part
    val q = PartitionMetrics.vertexCutQuality(g, spark, PartitionBridge.vertexDf(spark, assign), 8)
    assert(q.perPart.map(_.verts).sum === g.numVertices)
    assert(q.numEdges === g.numEdges)
  }

  test("single-partition vertex assignment has zero edge cut") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val q = PartitionMetrics.vertexCutQuality(
      g, spark, PartitionBridge.vertexDf(spark, new Array[Int](cg.numVertices)), 1)
    assert(q.edgeCutRatio === 0.0)
  }

  test("balance helper: max/mean") {
    assert(PartitionMetrics.balance(Seq(10L, 10L, 10L)) === 1.0)
    assert(PartitionMetrics.balance(Seq(20L, 10L, 0L)) === 2.0)
    assert(PartitionMetrics.balance(Seq.empty) === 1.0)
    assert(PartitionMetrics.balance(Seq(0L, 0L)) === 1.0)
  }

  test("train vertex balance reflects the split") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 3).part
    val q = PartitionMetrics.vertexCutQuality(g, spark, PartitionBridge.vertexDf(spark, assign), 4)
    assert(q.trainVertexBalance >= 1.0)
    assert(q.perPart.map(_.trainVerts).sum > 0)
  }
}
