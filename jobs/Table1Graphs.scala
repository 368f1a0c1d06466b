package repro.jobs

import repro.harness.{Study, Tables}

/** spark-submit entrypoint: print Table 1 (the five graph analogs). */
object Table1Graphs {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Table1Graphs")
    println("=== Table 1: Graphs of different types ===")
    println(Tables.renderTable1(Tables.table1(new Study(spark))))
    println()
    println("=== Table 2: Partitioning algorithms ===")
    println(Tables.renderTable2)
    println()
    println("=== Table 3: GNN hyper-parameters ===")
    println(Tables.renderTable3)
    spark.stop()
  }
}
