package repro.bench

import repro.SparkSpec
import repro.harness.Study

/** Base for the benchmark suites: one shared SparkSession and one shared
  * [[Study]], so every suite reads the same analogs and partitionings, fewer
  * shuffle partitions (bench inputs are ~10⁵ rows; 64 shuffle partitions
  * would be pure overhead), and a banner helper so `bench_output.txt` is
  * readable.
  */
trait BenchSpec extends SparkSpec {
  def study: Study = BenchSpec.study

  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.conf.set("spark.sql.shuffle.partitions", "8")
  }

  def banner(title: String): Unit = {
    println()
    println("=" * 78)
    println(s"== $title")
    println("=" * 78)
  }
}

object BenchSpec {
  lazy val study: Study = new Study(SparkSpec.shared)
}
