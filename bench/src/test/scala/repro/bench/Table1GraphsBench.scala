package repro.bench

import repro.graph.Datasets
import repro.harness.Tables

/** Table 1: the five graph analogs at bench scale (1/1000 of the paper).
  * Paper sizes for reference: HW 2M/229M, DI 24M/58M, EN 6M/150M,
  * EU 7M/166M, OR 3M/234M (|V|/|E|).
  */
class Table1GraphsBench extends BenchSpec {

  test("Table 1: graph analogs match the paper's shapes") {
    val rows = Tables.table1(study)
    banner("Table 1: Graphs of different types (bench scale = paper / 1000)")
    println(Tables.renderTable1(rows))

    assert(rows.size === 5)
    val byKey = rows.map(r => r.key -> r).toMap
    // |V| exact by construction (road is a square lattice, hence ~)
    Datasets.specs.filter(_.gtype != "Road").foreach { s =>
      assert(byKey(s.key).vertices === s.baseV, s.key)
    }
    // |E| within 10% of the scaled paper value
    Datasets.specs.foreach { s =>
      val e = byKey(s.key).edges.toDouble
      assert(math.abs(e - s.baseE) / s.baseE < 0.10, s"${s.key}: |E|=$e vs ${s.baseE}")
    }
    // directedness as in the paper's Table 1
    assert(!byKey("HW").directed && !byKey("OR").directed)
    assert(byKey("DI").directed && byKey("EN").directed && byKey("EU").directed)
    // density ordering: HW densest, DI sparsest (road)
    def density(k: String) = byKey(k).edges.toDouble / byKey(k).vertices
    assert(density("HW") > density("EN"))
    assert(density("OR") > density("DI"))
    assert(density("DI") < 4.0)
  }

  test("power-law analogs are skewed; the road analog is not") {
    def skew(key: String): Double = {
      val cg = study.graph(key).cg
      cg.degree.max / cg.meanDegree
    }
    val road = skew("DI")
    // HW is so dense (avg degree ≈ 188 at 2000 vertices) that hub degrees
    // saturate near |V|, capping its max/mean skew — hence the 2× bound;
    // the sparser power-law graphs show far heavier skew.
    Seq("HW", "EN", "EU", "OR").foreach { k =>
      assert(skew(k) > 2 * road, s"$k skew ${skew(k)} vs road $road")
    }
    Seq("EN", "EU", "OR").foreach { k =>
      assert(skew(k) > 5 * road, s"$k skew ${skew(k)} vs road $road")
    }
  }
}
