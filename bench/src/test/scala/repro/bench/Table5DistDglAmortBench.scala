package repro.bench

import repro.graph.Datasets
import repro.harness.Tables

/** Table 5: epochs until graph partitioning time is amortized by faster
  * DistDGL (mini-batch GraphSage) training, per (graph, partitioner).
  *
  * Paper values for reference (epochs; "no" = slowdown):
  *   graph | ByteGNN | KaHIP   | LDG  | Spinner | Metis
  *   DI    | 0.93    | 2.61    | 0.1  | 14.37   | 1.13
  *   EN    | 2.16    | 2501.93 | 0.39 | 54.07   | 16.79
  *   EU    | no      | 1197.25 | no   | 53.8    | 8.14
  *   HO    | 0.68    | 347.51  | 0.47 | 77.78   | 10.7
  *   OR    | 3.14    | 223.19  | 0.27 | 70.19   | 14.59
  */
class Table5DistDglAmortBench extends BenchSpec {

  test("Table 5: amortization ordering LDG < ByteGNN < Metis < Spinner < KaHIP") {
    val t = Tables.table5(study)
    banner("Table 5: epochs to amortize partitioning (DistDGL)")
    println(Tables.renderTable5(t))

    def v(g: String, a: String): Option[Double] = t((g, a))
    def mean(a: String): Double = {
      val xs = Datasets.distDglKeys.flatMap(g => v(g, a))
      if (xs.isEmpty) Double.PositiveInfinity else xs.sum / xs.size
    }
    // median is robust to the dense HW/OR analogs, whose tiny savings
    // blow up the epoch counts at this scale (see EXPERIMENTS.md)
    def median(a: String): Double = {
      val xs = Datasets.distDglKeys.flatMap(g => v(g, a)).sorted
      if (xs.isEmpty) Double.PositiveInfinity else xs(xs.size / 2)
    }

    for (g <- Datasets.distDglKeys; a <- Tables.table5Algos) assert(t.contains((g, a)))

    // LDG is nearly free — it amortizes almost immediately wherever it helps
    assert(mean("LDG") < mean("Spinner"), s"LDG ${mean("LDG")} vs Spinner ${mean("Spinner")}")
    assert(mean("LDG") < mean("KaHIP"), s"LDG ${mean("LDG")} vs KaHIP ${mean("KaHIP")}")

    // KaHIP's enormous partitioning time amortizes far slower than Metis
    // on every graph where both amortize (paper: 223-2500 vs 1.1-16.8)
    for (g <- Datasets.distDglKeys; kh <- v(g, "KaHIP"); me <- v(g, "Metis")) {
      assert(kh > 5 * me, s"$g: KaHIP $kh vs Metis $me")
    }

    // Metis amortizes on every graph (paper: 1.13-16.79 epochs)
    for (g <- Datasets.distDglKeys) {
      assert(v(g, "Metis").isDefined, s"Metis should amortize on $g")
    }

    // Spinner amortizes slower than Metis (cheap-ish partitioner, weaker cuts)
    assert(median("Metis") < median("Spinner"),
      s"Metis ${median("Metis")} Spinner ${median("Spinner")}")

    // DI is where KaHIP shines: lowest KaHIP amortization of all graphs
    for (kh <- v("DI", "KaHIP")) {
      val others = Seq("EN", "EU", "HW", "OR").flatMap(g => v(g, "KaHIP"))
      others.foreach(o => assert(kh < o, s"KaHIP DI=$kh vs other=$o"))
    }

    println()
    println("Paper Table 5 for comparison:")
    println("DI | 0.93 | 2.61    | 0.1  | 14.37 | 1.13")
    println("EN | 2.16 | 2501.93 | 0.39 | 54.07 | 16.79")
    println("EU | no   | 1197.25 | no   | 53.8  | 8.14")
    println("HW | 0.68 | 347.51  | 0.47 | 77.78 | 10.7")
    println("OR | 3.14 | 223.19  | 0.27 | 70.19 | 14.59")
  }
}
