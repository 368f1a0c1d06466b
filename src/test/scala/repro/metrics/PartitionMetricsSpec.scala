package repro.metrics

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.distdgl.SparkSampler
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
      // the training ids of the Spark reference split, not of the code under test
      val train = spark.range(g.numVertices).filter(SparkSampler.isTrain(col("id"))).select(col("id") as "vid")
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
        "train" -> train,
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

  test("each metric is one shuffle-free pass: 1 job for edgeCutQuality, 2 for vertexCutQuality") {
    val (shared, cg) = TestGraphs.smallWeb(spark)
    // a copy, compacted first, so that the collect of g.edges is not counted
    val g = shared.copy()
    g.compact()
    val k = 4
    val edf = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, k, 3).part)
    val vdf = PartitionBridge.vertexDf(
      spark, RandomVertex.partition(cg, k, new Array[Boolean](cg.numVertices), 3).part)
    val (edgeJobs, edgeRecords) = sparkWork(PartitionMetrics.edgeCutQuality(g, edf, k))
    val (vertexJobs, vertexRecords) = sparkWork(PartitionMetrics.vertexCutQuality(g, spark, vdf, k))
    assert(edgeJobs.size === 1, s"edgeCutQuality tasks per job: $edgeJobs")
    // the partition book's fold, then the pass over the blocks
    assert(vertexJobs.size === 2, s"vertexCutQuality tasks per job: $vertexJobs")
    // the pass reads the blocks only: one task per slice of the CSR
    val slices = spark.sparkContext.defaultParallelism
    assert(vertexJobs(1) === slices, s"vertex pass tasks: ${vertexJobs(1)}; slices: $slices")
    assert((edgeJobs ++ vertexJobs).forall(_ > 0), s"tasks per job: $edgeJobs, $vertexJobs")
    assert(edgeRecords === 0L && vertexRecords === 0L, s"shuffle records: $edgeRecords, $vertexRecords")
  }

  /** The loads of an edge assignment recomputed on the driver from sets,
    * with no bitmask: each part's edges, its covered vertices, and those
    * of them covered by at least two parts.
    */
  private def driverEdgeLoads(src: Array[Int], dst: Array[Int], assign: Array[Int], k: Int): Seq[EdgePartLoad] = {
    val cover = (0 until k).map(p =>
      assign.indices.filter(assign(_) == p).flatMap(i => Seq(src(i), dst(i))).toSet)
    val copies = cover.flatten.groupBy(identity).map { case (v, ps) => v -> ps.size }
    (0 until k).map(p =>
      EdgePartLoad(p, assign.count(_ == p).toLong, cover(p).size.toLong, cover(p).count(copies(_) >= 2).toLong))
  }

  // k = 64 uses part 63, whose mask bit is the sign bit; the last two leave
  // most parts empty
  private val maskCases: Seq[(String, Int, Array[Int] => Array[Int])] = Seq(
    ("k=1", 1, a => a.map(_ => 0)),
    ("k=4", 4, a => a.map(_ % 4)),
    ("k=64 with part 63", 64, a => { val b = a.clone(); b(0) = 63; b(1) = 63; b }),
    ("parts {3, 63} of k=64", 64, a => a.map(p => if (p % 2 == 0) 3 else 63)),
    ("part 2 alone of k=8", 8, a => a.map(_ => 2)),
  )

  for ((name, k, reshape) <- maskCases) {
    test(s"edgeCutQuality equals a driver recomputation ($name)") {
      val (g, cg) = TestGraphs.smallPowerLaw(spark)
      val assign = reshape(RandomEdge.partition(cg, 64, 3).part)
      val q = PartitionMetrics.edgeCutQuality(g, PartitionBridge.edgeDf(spark, cg, assign), k)
      val want = driverEdgeLoads(cg.src, cg.dst, assign, k)
      assert(q.perPart === want)
      assert(q.numEdges === cg.numEdges.toLong)
      assert(q.replicationFactor === want.map(_.verts).sum.toDouble / g.numVertices)
      assert(q.edgeBalance === PartitionMetrics.balance(want.map(_.edges)))
      assert(q.vertexBalance === PartitionMetrics.balance(want.map(_.verts)))
    }
  }

  /** Scores a random k=4 book of smallWeb after `edit` has broken it, and
    * expects the book to be refused with a message that contains `want`.
    */
  private def malformedBook(want: String)(edit: DataFrame => DataFrame): Unit = {
    val (g, cg) = TestGraphs.smallWeb(spark)
    val vdf = PartitionBridge.vertexDf(
      spark, RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 3).part)
    val e = intercept[IllegalArgumentException](PartitionMetrics.vertexCutQuality(g, spark, edit(vdf), 4))
    assert(e.getMessage.contains(want), e.getMessage)
  }

  test("vertexCutQuality throws when a vertex has no row in vertexDf") {
    malformedBook("vid 5 has no row")(_.filter(col("vid") =!= 5))
  }

  test("vertexCutQuality throws when a vid appears twice in vertexDf") {
    malformedBook("vid 5 has more than one row")(df => df.union(df.filter(col("vid") === 5)))
  }

  test("vertexCutQuality throws on a part column that is not an int") {
    // Catalyst rows are read unchecked, so the column types are checked first
    malformedBook("vertexDf: columns")(_.select(col("vid"), col("part").cast("long") as "part"))
  }

  test("vertexCutQuality throws on a vid outside [0, |V|)") {
    val (g, _) = TestGraphs.smallWeb(spark)
    malformedBook(s"vid ${g.numVertices} lies outside") {
      df => df.union(spark.range(1).select(lit(g.numVertices) as "vid", lit(0) as "part"))
    }
  }

  test("edgeCutQuality throws on a part outside [0, k)") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomEdge.partition(cg, 4, 3).part
    assign(0) = 4
    intercept[IllegalArgumentException] {
      PartitionMetrics.edgeCutQuality(g, PartitionBridge.edgeDf(spark, cg, assign), 4)
    }
  }

  test("vertexCutQuality throws on a part outside [0, k)") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 3).part
    assign(0) = 4
    intercept[IllegalArgumentException] {
      PartitionMetrics.vertexCutQuality(g, spark, PartitionBridge.vertexDf(spark, assign), 4)
    }
  }

  test("edgeCutQuality throws on a negative part") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomEdge.partition(cg, 4, 3).part
    assign(7) = -1
    val e = intercept[IllegalArgumentException] {
      PartitionMetrics.edgeCutQuality(g, PartitionBridge.edgeDf(spark, cg, assign), 4)
    }
    assert(e.getMessage.contains("part -1"), e.getMessage)
  }

  test("vertexCutQuality throws on a negative part") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 3).part
    assign(7) = -1
    val e = intercept[IllegalArgumentException] {
      PartitionMetrics.vertexCutQuality(g, spark, PartitionBridge.vertexDf(spark, assign), 4)
    }
    assert(e.getMessage.contains("part -1"), e.getMessage)
  }

  test("edgeCutQuality throws on k = 65, beyond its 64-bit cover masks") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    intercept[IllegalArgumentException] {
      PartitionMetrics.edgeCutQuality(g, PartitionBridge.edgeDf(spark, cg, new Array[Int](cg.numEdges)), 65)
    }
  }

  test("edgeCutQuality throws on an edge endpoint equal to |V|") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val df = PartitionBridge.edgeDf(spark, cg, new Array[Int](cg.numEdges))
      .union(spark.range(1).select(lit(0L) as "src", lit(g.numVertices) as "dst", lit(0) as "part"))
    val e = intercept[IllegalArgumentException](PartitionMetrics.edgeCutQuality(g, df, 4))
    assert(e.getMessage.contains(s"edge (0, ${g.numVertices})"), e.getMessage)
  }

  test("vertexCutQuality throws on an edge endpoint equal to |V|") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val bad = g.copy(edges = g.edges.union(spark.range(1).select(lit(g.numVertices) as "src", lit(0L) as "dst")))
    val vdf = PartitionBridge.vertexDf(spark, new Array[Int](cg.numVertices))
    val e = intercept[IllegalArgumentException](PartitionMetrics.vertexCutQuality(bad, spark, vdf, 4))
    assert(e.getMessage.contains(s"edge (${g.numVertices}, 0)"), e.getMessage)
  }
}
