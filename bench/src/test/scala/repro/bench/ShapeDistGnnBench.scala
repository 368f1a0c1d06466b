package repro.bench

import repro.gnn.{GnnConfig, GnnParams}
import repro.graph.Datasets
import repro.harness.{Study, Tables}

/** Figure-level shape checks for the DistGNN (full-batch, vertex-cut) half
  * of the study: replication factors (Fig. 2), vertex balance (Fig. 4),
  * memory balance (Fig. 5), partitioning time (Fig. 6), speedups (Fig. 7 /
  * 11a), memory footprint vs Random (Fig. 9 / 11b), RF vs Random (Fig 11c).
  */
class ShapeDistGnnBench extends BenchSpec {

  private val algos = Seq("Random", "DBH", "2PS-L", "HDRF", "HEP10", "HEP100")
  private val graphs = Datasets.distGnnKeys

  test("Fig 2-like: replication factors per graph and partitioner") {
    banner("Replication factors (k=4 | k=8 | k=16 | k=32)")
    println(f"${"graph"}%-6s${"algo"}%-8s rf4   rf8   rf16  rf32")
    for (g <- graphs; a <- algos) {
      val rfs = Study.machineCounts.map(k => study.edgeRun(g, a, k).quality.replicationFactor)
      println(f"$g%-6s$a%-8s" + rfs.map(r => f"$r%5.2f ").mkString)
    }
    // shape: the HEP family lowest (within 15% of the best — at 1/1000
    // scale the dense HW/OR analogs leave HDRF within reach, see
    // EXPERIMENTS.md), Random highest, everywhere
    for (g <- graphs; k <- Study.machineCounts) {
      val rf = algos.map(a => a -> study.edgeRun(g, a, k).quality.replicationFactor).toMap
      val best = rf.values.min
      assert(math.min(rf("HEP100"), rf("HEP10")) <= best * 1.15 + 1e-9, s"$g k=$k: $rf")
      assert(rf("Random") >= rf.values.max - 1e-9, s"$g k=$k: $rf")
    }
    // shape: RF grows with k
    for (g <- graphs; a <- algos) {
      val r4 = study.edgeRun(g, a, 4).quality.replicationFactor
      val r32 = study.edgeRun(g, a, 32).quality.replicationFactor
      assert(r32 > r4, s"$g $a: rf32=$r32 rf4=$r4")
    }
  }

  test("Fig 11c-like: RF in % of Random falls with scale-out for HEP") {
    banner("Replication factor in % of Random")
    println(f"${"graph"}%-6s${"algo"}%-8s  k=4    k=32")
    for (g <- graphs; a <- algos.drop(1)) {
      val p4 = 100 * study.edgeRun(g, a, 4).quality.replicationFactor /
        study.edgeRun(g, "Random", 4).quality.replicationFactor
      val p32 = 100 * study.edgeRun(g, a, 32).quality.replicationFactor /
        study.edgeRun(g, "Random", 32).quality.replicationFactor
      println(f"$g%-6s$a%-8s$p4%6.1f%% $p32%6.1f%%")
    }
    // paper: HEP100 goes from ~36% of Random at k=4 to ~11% at k=32 on average
    val drops = graphs.map { g =>
      val p4 = study.edgeRun(g, "HEP100", 4).quality.replicationFactor /
        study.edgeRun(g, "Random", 4).quality.replicationFactor
      val p32 = study.edgeRun(g, "HEP100", 32).quality.replicationFactor /
        study.edgeRun(g, "Random", 32).quality.replicationFactor
      p32 < p4
    }
    assert(drops.count(identity) >= 3, "HEP100 should gain on Random with scale-out on most graphs")
  }

  test("Fig 4/5-like: vertex balance and memory balance correlate") {
    banner("Vertex balance / memory-utilization balance (k=4)")
    println(f"${"graph"}%-6s${"algo"}%-8s  VB    memBal")
    val pairs = for (g <- graphs; a <- algos) yield {
      val q = study.edgeRun(g, a, 4).quality
      val e = study.gnnEpoch(g, a, 4, GnnConfig.default)
      println(f"$g%-6s$a%-8s${q.vertexBalance}%5.2f  ${e.memoryBalance}%5.2f")
      (q.vertexBalance, e.memoryBalance)
    }
    // correlation: ranking by VB ~ ranking by memory balance (Spearman-ish)
    val byVb = pairs.sortBy(_._1).map(_._2)
    assert(byVb.last >= byVb.head, "memory balance should track vertex balance")
    // 2PS-L shows the largest vertex imbalance family-wide (paper Fig. 4)
    val avgVb = algos.map(a => a -> graphs.map(g =>
      study.edgeRun(g, a, 4).quality.vertexBalance).sum / graphs.size).toMap
    assert(avgVb("2PS-L") > avgVb("DBH"), avgVb.toString)
    assert(avgVb("2PS-L") > avgVb("Random"), avgVb.toString)
  }

  test("edge balance stays tight for all partitioners (paper: alpha <= 1.11)") {
    val bad = for {
      g <- graphs; a <- algos; k <- Seq(4, 32)
      eb = study.edgeRun(g, a, k).quality.edgeBalance
      if eb > 1.25
    } yield s"$g $a k=$k eb=$eb"
    assert(bad.isEmpty, bad.mkString(", "))
  }

  test("Fig 6-like: partitioning time ordering") {
    banner("Partitioning time (simulated seconds), k=4 and k=32")
    println(f"${"graph"}%-6s${"algo"}%-8s    t(k=4)    t(k=32)")
    for (g <- graphs; a <- algos) {
      val t4 = study.edgeRun(g, a, 4).partTime
      val t32 = study.edgeRun(g, a, 32).partTime
      println(f"$g%-6s$a%-8s$t4%10.4f $t32%10.4f")
    }
    for (g <- graphs) {
      val t = (a: String, k: Int) => study.edgeRun(g, a, k).partTime
      assert(t("Random", 4) < t("HDRF", 4), g)
      // HDRF's cost grows with k (k-way scoring); Random/DBH do not
      assert(t("HDRF", 32) > 2 * t("HDRF", 4), g)
      assert(t("Random", 32) < 1.5 * t("Random", 4), g)
    }
  }

  test("Fig 7/11a-like: speedups vs Random grow with scale-out") {
    banner("Mean speedup vs Random over the 27-combo grid")
    println(f"${"graph"}%-6s${"algo"}%-8s   k=4    k=8    k=16   k=32")
    val speed = scala.collection.mutable.Map.empty[(String, String, Int), Double]
    for (g <- graphs; a <- algos.drop(1)) {
      val row = Study.machineCounts.map { k =>
        val s = Tables.distGnnSpeedup(study, g, a, k)
        speed((g, a, k)) = s
        f"$s%6.2f "
      }
      println(f"$g%-6s$a%-8s" + row.mkString)
    }
    // the best partitioner per graph at scale-out is a low-RF one (HEP
    // family or HDRF — at 1/1000 scale HDRF reaches the HEP family's RF
    // on the dense analogs, see EXPERIMENTS.md)
    for (g <- graphs; k <- Seq(16, 32)) {
      val best = algos.drop(1).maxBy(a => speed((g, a, k)))
      assert(Set("HEP100", "HEP10", "HDRF")(best), s"$g k=$k best=$best")
    }
    // speedups increase with machine count for the high-quality
    // partitioners (HW's HEP is flat — its analog saturates at this
    // scale, see EXPERIMENTS.md)
    for (g <- graphs) assert(speed((g, "HDRF", 32)) > speed((g, "HDRF", 4)), s"$g HDRF")
    for (g <- graphs.filterNot(_ == "HW")) {
      assert(speed((g, "HEP10", 32)) > speed((g, "HEP10", 4)), s"$g HEP10")
    }
    // every partitioner except 2PS-L beats Random on average (paper Fig. 7)
    for (g <- graphs; a <- Seq("DBH", "HDRF", "HEP10", "HEP100")) {
      val avg = Study.machineCounts.map(k => speed((g, a, k))).sum / 4
      assert(avg > 1.0, s"$g $a avg=$avg")
    }
    // overall magnitude sanity: best speedup well above 2.5x somewhere, bounded
    assert(graphs.exists(g => algos.drop(1).exists(a => speed((g, a, 32)) > 2.5)))
    assert(speed.values.forall(_ < 20.0))
  }

  test("Fig 9/11b-like: memory footprint in % of Random shrinks with quality and scale-out") {
    banner("Memory footprint in % of Random (mean over grid)")
    println(f"${"graph"}%-6s${"algo"}%-8s   k=4    k=8    k=16   k=32")
    def memPct(g: String, a: String, k: Int): Double = {
      val grid = GnnConfig.grid()
      val r = grid.map { p =>
        study.gnnEpoch(g, a, k, p).totalMemoryBytes / study.gnnEpoch(g, "Random", k, p).totalMemoryBytes
      }
      100 * r.sum / r.size
    }
    for (g <- graphs; a <- algos.drop(1)) {
      val row = Study.machineCounts.map(k => f"${memPct(g, a, k)}%6.1f ")
      println(f"$g%-6s$a%-8s" + row.mkString)
    }
    for (g <- graphs) {
      // HEP100 reduces memory strongly (paper: 37-67% reduction)
      assert(memPct(g, "HEP100", 8) < 75, s"$g: ${memPct(g, "HEP100", 8)}")
      // and is better than the streaming partitioners
      assert(memPct(g, "HEP100", 32) < memPct(g, "DBH", 32), g)
    }
  }

  test("DI: Random partitioning OOMs in full-batch training, HEP100 does not (paper §4.3)") {
    // config chosen such that RF≈1 fits the (scaled) 64 MB budget but
    // Random's ~4× replication does not — the paper's "advanced
    // partitioners enable processing DI in many cases"
    banner("DI out-of-memory check (full-batch, f=512, h=64, L=2, k=4)")
    val p = GnnParams(featureSize = 512, hidden = 64, layers = 2)
    val rnd = study.gnnEpoch("DI", "Random", 4, p)
    val hep = study.gnnEpoch("DI", "HEP100", 4, p)
    println(f"Random: maxMem=${rnd.maxMemoryBytes / 1e6}%.1f MB oom=${rnd.oom}")
    println(f"HEP100: maxMem=${hep.maxMemoryBytes / 1e6}%.1f MB oom=${hep.oom}")
    assert(rnd.maxMemoryBytes > hep.maxMemoryBytes)
    assert(rnd.oom, "Random on DI should exceed the 64 MB scaled budget")
    assert(!hep.oom, "HEP100 on DI should fit")
  }
}
