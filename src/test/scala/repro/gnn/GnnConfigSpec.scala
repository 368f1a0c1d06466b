package repro.gnn

import org.scalatest.funsuite.AnyFunSuite
import repro.partition.{PartitionCost, Partitioners}

class GnnConfigSpec extends AnyFunSuite {

  test("grid has 27 combinations (Table 3)") {
    assert(GnnConfig.grid().size === 27)
    assert(GnnConfig.grid().distinct.size === 27)
  }

  test("grid spans the paper's values") {
    val g = GnnConfig.grid()
    assert(g.map(_.featureSize).distinct.sorted === Seq(16, 64, 512))
    assert(g.map(_.hidden).distinct.sorted === Seq(16, 64, 512))
    assert(g.map(_.layers).distinct.sorted === Seq(2, 3, 4))
  }

  test("fanouts follow the paper's schedule (§5.1)") {
    assert(GnnParams(layers = 2).fanouts === Seq(25, 20))
    assert(GnnParams(layers = 3).fanouts === Seq(15, 10, 5))
    assert(GnnParams(layers = 4).fanouts === Seq(10, 10, 5, 5))
  }

  test("dimIn: features at layer 1, hidden after") {
    val p = GnnParams(featureSize = 32, hidden = 7, layers = 3)
    assert(p.dimIn(1) === 32)
    assert(p.dimIn(2) === 7)
    assert(p.dimIn(3) === 7)
  }

  test("model params grow with dims and layers") {
    assert(GnnParams(hidden = 512).modelParams > GnnParams(hidden = 16).modelParams)
    assert(GnnParams(layers = 4).modelParams > GnnParams(layers = 2).modelParams)
  }

  test("GAT has extra attention params over GCN") {
    assert(GnnParams(model = "GAT").modelParams > GnnParams(model = "GCN").modelParams)
  }

  test("unknown model rejected") {
    intercept[IllegalArgumentException] { GnnParams(model = "MLP") }
  }

  test("compute multipliers ordered GCN < GraphSage < GAT") {
    assert(GnnParams(model = "GCN").computeMult < GnnParams(model = "GraphSage").computeMult)
    assert(GnnParams(model = "GraphSage").computeMult < GnnParams(model = "GAT").computeMult)
  }

  test("partitioning time: more work costs more time") {
    val small = CostModel.partitioningTime("HDRF", PartitionCost(edgesStreamed = 1000, scoreEvals = 8000))
    val large = CostModel.partitioningTime("HDRF", PartitionCost(edgesStreamed = 10000, scoreEvals = 80000))
    assert(large > small)
  }

  test("partitioning time: KaHIP constant factor dwarfs Metis for equal work") {
    val c = PartitionCost(heavyOps = 1000000)
    assert(CostModel.partitioningTime("KaHIP", c) > 10 * CostModel.partitioningTime("Metis", c))
  }

  test("partitioning time: every registered partitioner is priced, an unknown name throws") {
    val c = PartitionCost(edgesStreamed = 1000)
    (Partitioners.edgePartitioners.map(_.name) ++ Partitioners.vertexPartitioners.map(_.name))
      .foreach(name => assert(CostModel.partitioningTime(name, c) > 0, name))
    val e = intercept[IllegalArgumentException](CostModel.partitioningTime("Metis2", c))
    assert(e.getMessage.contains("Metis2"))
  }

  test("all-reduce time grows with params and is k-independent (ring)") {
    assert(CostModel.allReduceTime(1000000) > CostModel.allReduceTime(1000))
  }
}
