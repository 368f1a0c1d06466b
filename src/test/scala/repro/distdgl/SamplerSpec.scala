package repro.distdgl

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphOps
import repro.partition.PartitionBridge
import repro.partition.vertex.RandomVertex

class SamplerSpec extends SparkSpec {

  private lazy val (pl, plCg) = TestGraphs.smallPowerLaw(spark)
  private lazy val plMask = GraphOps.trainMask(pl, spark)

  /** One FastSampler step on the small power-law graph, Random-partitioned. */
  private def sample(k: Int, fanouts: Seq[Int], gbs: Int, seed: Long): Seq[WorkerSample] =
    sampleWith(RandomVertex.partition(plCg, k, new Array[Boolean](plCg.numVertices), 5).part, k, fanouts, gbs, seed)

  private def sampleWith(assign: Array[Int], k: Int, fanouts: Seq[Int], gbs: Int, seed: Long): Seq[WorkerSample] =
    FastSampler.sampleStep(plCg, assign, plMask, k, fanouts, gbs, seed)

  test("one worker sample per worker is returned") {
    val s = sample(4, Seq(5, 5), 32, seed = 1)
    assert(s.size === 4)
    assert(s.map(_.worker) === (0 until 4))
  }

  test("roots respect the per-worker batch size") {
    val s = sample(4, Seq(5, 5), 32, seed = 1)
    s.foreach(w => assert(w.roots <= 8, s"worker ${w.worker}: ${w.roots} roots"))
  }

  test("sampled edges per hop respect the fanout cap") {
    val fanouts = Seq(3, 2)
    val s = sample(4, fanouts, 32, seed = 1)
    s.foreach { w =>
      // hop t can sample at most fanout_t edges per frontier-(t-1) vertex
      fanouts.indices.foreach { t =>
        val cap = w.frontierPerHop(t) * fanouts(t)
        assert(w.edgesPerHop(t) <= cap, s"worker ${w.worker} hop $t: ${w.edgesPerHop(t)} > $cap")
      }
    }
  }

  test("input vertices are at least the roots and include all frontiers") {
    val s = sample(4, Seq(5, 5), 32, seed = 1)
    s.foreach { w =>
      assert(w.inputVerts >= w.roots)
      assert(w.inputVerts <= w.frontierPerHop.sum) // distinct union <= sum of levels
    }
  }

  test("remote input vertices never exceed input vertices") {
    val s = sample(8, Seq(5, 5), 32, seed = 1)
    s.foreach(w => assert(w.remoteInputVerts <= w.inputVerts))
  }

  test("sampling is deterministic in the seed") {
    val a = sample(4, Seq(5, 5), 32, seed = 1)
    val b = sample(4, Seq(5, 5), 32, seed = 1)
    assert(a === b)
  }

  test("different seeds draw different batches") {
    // selective fanouts so different neighbor draws change the distinct
    // frontier sizes (the observable counters)
    val a = sample(4, Seq(3, 3), 16, seed = 1)
    val b = sample(4, Seq(3, 3), 16, seed = 7)
    assert(a != b)
  }

  test("single partition: no remote vertices at all") {
    val s = sampleWith(new Array[Int](plCg.numVertices), 1, Seq(5, 5), 32, seed = 1)
    assert(s.head.remoteInputVerts === 0)
    assert(s.head.remoteExpanded === 0)
  }

  test("roots are training vertices owned by the worker") {
    val assign = RandomVertex.partition(plCg, 4, new Array[Boolean](plCg.numVertices), 5).part
    // each worker draws min(gbs / k, its training vertices) roots
    val owned = (0 until 4).map(w => assign.indices.count(v => assign(v) == w && plMask(v)))
    assert(owned.forall(_ > 0))
    val s = sampleWith(assign, 4, Seq(3), 32, seed = 1)
    assert(s.map(_.roots) === owned.map(n => math.min(8, n).toLong))
  }

  test("FastSampler makes identical decisions to the Spark sampler (undirected)") {
    val assign = RandomVertex.partition(plCg, 4, plMask, 5).part
    // the edge cases of the root draw: worker 1 owns fewer than
    // gbs / k = 8 training vertices and worker 3 owns none
    val skewed = assign.clone()
    val train1 = skewed.indices.filter(v => plMask(v) && skewed(v) == 1)
    for (v <- train1.drop(2)) skewed(v) = 2
    for (v <- skewed.indices if plMask(v) && skewed(v) == 3) skewed(v) = 0
    val owned = (0 until 4).map(w => skewed.indices.count(v => plMask(v) && skewed(v) == w))
    assert(owned(1) === 2 && owned(2) > 0 && owned(3) === 0, owned)
    for (part <- Seq(assign, skewed)) {
      val vdf = PartitionBridge.vertexDf(spark, part)
      val a = SparkSampler.sampleStep(SparkSampler.adjacency(pl), vdf, 4, Seq(5, 3), 32, seed = 9)
      assert(a === sampleWith(part, 4, Seq(5, 3), 32, seed = 9))
    }
  }

  test("FastSampler makes identical decisions to the Spark sampler (directed)") {
    val (g, cg) = TestGraphs.smallWeb(spark)
    val mask = GraphOps.trainMask(g, spark)
    val assign = RandomVertex.partition(cg, 8, mask, 5).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    val a = SparkSampler.sampleStep(SparkSampler.adjacency(g), vdf, 8, Seq(10, 5, 5), 64, seed = 3)
    val b = FastSampler.sampleStep(cg, assign, mask, 8, Seq(10, 5, 5), 64, seed = 3)
    assert(a === b)
  }

  test("FastSampler matches on the grid graph with Metis partitions") {
    val (g, cg) = TestGraphs.smallGrid(spark)
    val mask = GraphOps.trainMask(g, spark)
    val assign = repro.partition.vertex.Multilevel.metis.partition(cg, 4, mask, 5).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    val a = SparkSampler.sampleStep(SparkSampler.adjacency(g), vdf, 4, Seq(5, 5), 32, seed = 4)
    val b = FastSampler.sampleStep(cg, assign, mask, 4, Seq(5, 5), 32, seed = 4)
    assert(a === b)
  }

  test("more partitions -> more remote input vertices in total (paper Fig. 24b)") {
    def remote(k: Int): Long = sample(k, Seq(5, 5), 32, seed = 1).map(_.remoteInputVerts).sum
    assert(remote(16) > remote(2))
  }

  test("a better partitioner yields fewer remote vertices than random") {
    def remote(assign: Array[Int]): Long = sampleWith(assign, 4, Seq(5, 5), 32, seed = 1).map(_.remoteInputVerts).sum
    val rnd = remote(RandomVertex.partition(plCg, 4, plMask, 5).part)
    val met = remote(repro.partition.vertex.Multilevel.metis.partition(plCg, 4, plMask, 5).part)
    assert(met < rnd, s"metis=$met random=$rnd")
  }
}
