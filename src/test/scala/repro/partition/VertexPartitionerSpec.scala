package repro.partition

import java.util.concurrent.{Callable, CountDownLatch, Executors}
import repro.{SparkSpec, TestGraphs}
import repro.graph.{CompactGraph, GraphOps}
import repro.partition.vertex.Multilevel

/** Invariants every vertex partitioner (edge-cut) must satisfy, checked for
  * every algorithm × every test-graph family × k ∈ {4, 8, 32}.
  */
class VertexPartitionerSpec extends SparkSpec {

  private val ks = Seq(4, 8, 32)

  private def mask(gname: String) = {
    val Some((_, g, _)) = TestGraphs.all(SparkSpec.shared).find(_._1 == gname)
    GraphOps.trainMask(g, SparkSpec.shared)
  }

  for {
    p <- Partitioners.vertexPartitioners
    (gname, _, cg) <- TestGraphs.all(SparkSpec.shared)
    k <- ks
  } {
    val label = s"${p.name} on $gname k=$k"

    test(s"$label: every vertex assigned to exactly one valid partition") {
      val res = p.partition(cg, k, mask(gname), seed = 3)
      assert(res.part.length === cg.numVertices)
      assert(res.part.forall(x => x >= 0 && x < k))
    }

    test(s"$label: deterministic in the seed") {
      val a = p.partition(cg, k, mask(gname), seed = 3)
      val b = p.partition(cg, k, mask(gname), seed = 3)
      assert(a.part.sameElements(b.part))
    }

    test(s"$label: uses more than one partition") {
      val res = p.partition(cg, k, mask(gname), seed = 3)
      assert(res.part.distinct.length > 1)
    }

    test(s"$label: vertex balance within 1.7") {
      val res = p.partition(cg, k, mask(gname), seed = 3)
      val loads = res.part.groupBy(identity).view.mapValues(_.length.toLong).toMap
      val maxLoad = (0 until k).map(loads.getOrElse(_, 0L)).max
      val mean = cg.numVertices.toDouble / k
      assert(maxLoad <= 1.7 * mean + 2, s"${p.name} maxLoad=$maxLoad mean=$mean")
    }
  }

  for ((gname, _, cg) <- TestGraphs.all(SparkSpec.shared); p <- Seq(Multilevel.kahip, Multilevel.metis)) {
    test(s"${p.name} on $gname: four concurrent callers get the output of a sequential call") {
      // each copy's lazy adjacency is first forced inside `partition`
      def copy() = new CompactGraph(cg.numVertices, cg.src.clone(), cg.dst.clone(), cg.directed)
      val m = mask(gname)
      val expected = p.partition(copy(), 8, m, seed = 3)
      val shared = copy()
      val pool = Executors.newFixedThreadPool(4)
      val results = try {
        val start = new CountDownLatch(1)
        val calls = (1 to 4).map(_ => pool.submit(new Callable[VertexPartitionResult] {
          def call(): VertexPartitionResult = { start.await(); p.partition(shared, 8, m, seed = 3) }
        }))
        start.countDown()
        calls.map(_.get())
      } finally pool.shutdown()
      for (r <- results) {
        assert(r.part.sameElements(expected.part))
        assert(r.cost === expected.cost)
      }
    }
  }

  test("ByteGNN balances training vertices across partitions") {
    val (gname, _, cg) = TestGraphs.all(SparkSpec.shared).head
    val m = mask(gname)
    val res = vertex.ByteGnn.partition(cg, 4, m, seed = 3)
    val trainLoads = (0 until 4).map(p => res.part.indices.count(v => res.part(v) == p && m(v)).toLong)
    val bal = repro.metrics.PartitionMetrics.balance(trainLoads)
    assert(bal <= 1.5, s"training-vertex balance $bal")
  }
}
