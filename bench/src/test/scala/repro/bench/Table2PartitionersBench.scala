package repro.bench

import repro.harness.Tables
import repro.partition.Partitioners

/** Table 2: the twelve partitioning algorithms of the study. */
class Table2PartitionersBench extends BenchSpec {

  test("Table 2: registry covers the paper's twelve algorithms") {
    banner("Table 2: Partitioning algorithms")
    println(Tables.renderTable2)

    val rows = Partitioners.table2
    assert(rows.size === 12)
    assert(rows.count(_._2 == "vertex-cut") === 6)
    assert(rows.count(_._2 == "edge-cut") === 6)
    val names = rows.map(_._1).toSet
    Seq("Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100",
        "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP").foreach(n => assert(names(n), n))
    // categories as in the paper
    val cat = rows.map(r => r._1 -> r._3).toMap
    assert(cat("DBH").startsWith("Stateless"))
    assert(cat("HDRF").startsWith("Stateful"))
    assert(cat("HEP10").startsWith("Hybrid"))
    assert(cat("Metis").startsWith("In-memory"))
    assert(cat("KaHIP").startsWith("In-memory"))
    assert(cat("Spinner").startsWith("In-memory"))
    assert(cat("ByteGNN").startsWith("In-memory"))
    assert(cat("LDG").startsWith("Stateful"))
  }

  test("Table 3: hyper-parameter grid") {
    banner("Table 3: GNN hyper-parameters")
    println(Tables.renderTable3)
    assert(repro.gnn.GnnConfig.grid().size === 27)
    assert(Partitioners.edgePartitioners.map(_.name) ===
      Seq("Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100"))
  }
}
