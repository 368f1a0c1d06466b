package repro.jobs

import repro.harness.{Study, Tables}

/** spark-submit entrypoint: reproduce Table 4 — epochs until the
  * partitioning time is amortized by faster DistGNN (full-batch) training.
  */
object Table4DistGnn {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Table4DistGnn")
    println("=== Table 4: epochs to amortize partitioning (DistGNN, full-batch GraphSage) ===")
    println(Tables.renderTable4(Tables.table4(new Study(spark))))
    spark.stop()
  }
}
