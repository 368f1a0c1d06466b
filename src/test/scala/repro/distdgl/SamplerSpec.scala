package repro.distdgl

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphOps
import repro.partition.PartitionBridge
import repro.partition.vertex.RandomVertex

class SamplerSpec extends SparkSpec {

  private def setup(k: Int) = {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomVertex.partition(cg, k, new Array[Boolean](cg.numVertices), 5).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    (vdf, GraphOps.adjacency(g))
  }

  test("one worker sample per worker is returned") {
    val (vdf, adj) = setup(4)
    val s = Sampler.sampleStep(adj, vdf, 4, Seq(5, 5), 32, seed = 1)
    assert(s.size === 4)
    assert(s.map(_.worker) === (0 until 4))
  }

  test("roots respect the per-worker batch size") {
    val (vdf, adj) = setup(4)
    val s = Sampler.sampleStep(adj, vdf, 4, Seq(5, 5), 32, seed = 1)
    s.foreach(w => assert(w.roots <= 8, s"worker ${w.worker}: ${w.roots} roots"))
  }

  test("sampled edges per hop respect the fanout cap") {
    val (vdf, adj) = setup(4)
    val fanouts = Seq(3, 2)
    val s = Sampler.sampleStep(adj, vdf, 4, fanouts, 32, seed = 1)
    s.foreach { w =>
      // hop t can sample at most fanout_t edges per frontier-(t-1) vertex
      fanouts.indices.foreach { t =>
        val cap = w.frontierPerHop(t) * fanouts(t)
        assert(w.edgesPerHop(t) <= cap, s"worker ${w.worker} hop $t: ${w.edgesPerHop(t)} > $cap")
      }
    }
  }

  test("input vertices are at least the roots and include all frontiers") {
    val (vdf, adj) = setup(4)
    val s = Sampler.sampleStep(adj, vdf, 4, Seq(5, 5), 32, seed = 1)
    s.foreach { w =>
      assert(w.inputVerts >= w.roots)
      assert(w.inputVerts <= w.frontierPerHop.sum) // distinct union <= sum of levels
    }
  }

  test("remote input vertices never exceed input vertices") {
    val (vdf, adj) = setup(8)
    val s = Sampler.sampleStep(adj, vdf, 8, Seq(5, 5), 32, seed = 1)
    s.foreach(w => assert(w.remoteInputVerts <= w.inputVerts))
  }

  test("sampling is deterministic in the seed") {
    val (vdf, adj) = setup(4)
    val a = Sampler.sampleStep(adj, vdf, 4, Seq(5, 5), 32, seed = 1)
    val b = Sampler.sampleStep(adj, vdf, 4, Seq(5, 5), 32, seed = 1)
    assert(a === b)
  }

  test("different seeds draw different batches") {
    val (vdf, adj) = setup(4)
    // selective fanouts so different neighbor draws change the distinct
    // frontier sizes (the observable counters)
    val a = Sampler.sampleStep(adj, vdf, 4, Seq(3, 3), 16, seed = 1)
    val b = Sampler.sampleStep(adj, vdf, 4, Seq(3, 3), 16, seed = 7)
    assert(a != b)
  }

  test("single partition: no remote vertices at all") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val vdf = PartitionBridge.vertexDf(spark, new Array[Int](cg.numVertices))
    val adj = GraphOps.adjacency(g)
    val s = Sampler.sampleStep(adj, vdf, 1, Seq(5, 5), 32, seed = 1)
    assert(s.head.remoteInputVerts === 0)
    assert(s.head.remoteExpanded === 0)
  }

  test("roots are training vertices owned by the worker") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val mask = GraphOps.trainMask(g, spark)
    val assign = RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 5).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    // each worker draws min(gbs / k, its training vertices) roots
    val owned = (0 until 4).map(w => assign.indices.count(v => assign(v) == w && mask(v)))
    assert(owned.forall(_ > 0))
    val s = Sampler.sampleStep(GraphOps.adjacency(g), vdf, 4, Seq(3), 32, seed = 1)
    assert(s.map(_.roots) === owned.map(n => math.min(8, n).toLong))
  }

  test("FastSampler makes identical decisions to the Spark sampler (undirected)") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val mask = GraphOps.trainMask(g, spark)
    val assign = RandomVertex.partition(cg, 4, mask, 5).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    val a = Sampler.sampleStep(GraphOps.adjacency(g), vdf, 4, Seq(5, 3), 32, seed = 9)
    val b = FastSampler.sampleStep(cg, assign, mask, 4, Seq(5, 3), 32, seed = 9)
    assert(a === b)
  }

  test("FastSampler makes identical decisions to the Spark sampler (directed)") {
    val (g, cg) = TestGraphs.smallWeb(spark)
    val mask = GraphOps.trainMask(g, spark)
    val assign = RandomVertex.partition(cg, 8, mask, 5).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    val a = Sampler.sampleStep(GraphOps.adjacency(g), vdf, 8, Seq(10, 5, 5), 64, seed = 3)
    val b = FastSampler.sampleStep(cg, assign, mask, 8, Seq(10, 5, 5), 64, seed = 3)
    assert(a === b)
  }

  test("FastSampler matches on the grid graph with Metis partitions") {
    val (g, cg) = TestGraphs.smallGrid(spark)
    val mask = GraphOps.trainMask(g, spark)
    val assign = repro.partition.vertex.Multilevel.metis.partition(cg, 4, mask, 5).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    val a = Sampler.sampleStep(GraphOps.adjacency(g), vdf, 4, Seq(5, 5), 32, seed = 4)
    val b = FastSampler.sampleStep(cg, assign, mask, 4, Seq(5, 5), 32, seed = 4)
    assert(a === b)
  }

  test("more partitions -> more remote input vertices in total (paper Fig. 24b)") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val adj = GraphOps.adjacency(g)
    def remote(k: Int): Long = {
      val assign = RandomVertex.partition(cg, k, new Array[Boolean](cg.numVertices), 5).part
      val vdf = PartitionBridge.vertexDf(spark, assign)
      Sampler.sampleStep(adj, vdf, k, Seq(5, 5), 32, seed = 1).map(_.remoteInputVerts).sum
    }
    assert(remote(16) > remote(2))
  }

  test("a better partitioner yields fewer remote vertices than random") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val mask = GraphOps.trainMask(g, spark)
    val adj = GraphOps.adjacency(g)
    def remote(assign: Array[Int]): Long =
      Sampler.sampleStep(adj, PartitionBridge.vertexDf(spark, assign), 4, Seq(5, 5), 32, seed = 1)
        .map(_.remoteInputVerts).sum
    val rnd = remote(RandomVertex.partition(cg, 4, mask, 5).part)
    val met = remote(repro.partition.vertex.Multilevel.metis.partition(cg, 4, mask, 5).part)
    assert(met < rnd, s"metis=$met random=$rnd")
  }
}
