package repro.jobs

import repro.harness.{Study, Tables}

/** spark-submit entrypoint: reproduce Table 5 — epochs until the
  * partitioning time is amortized by faster DistDGL (mini-batch) training.
  */
object Table5DistDgl {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Table5DistDgl")
    println("=== Table 5: epochs to amortize partitioning (DistDGL, mini-batch GraphSage) ===")
    println(Tables.renderTable5(Tables.table5(new Study(spark))))
    spark.stop()
  }
}
