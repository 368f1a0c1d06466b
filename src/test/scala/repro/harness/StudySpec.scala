package repro.harness

import repro.SparkSpec
import repro.amortize.Amortization
import repro.graph.Datasets

/** The study harness on DI, the cheapest analog: each `Study` memoizes its
  * own runs, two `Study`s compute the same runs independently, and a Table 5
  * amortization cell is the per-k averages over the cluster sizes. Spark
  * keeps no copy of a `Study`'s graphs, and Table 1 reads their CSRs.
  */
class StudySpec extends SparkSpec {
  private lazy val study = new Study(spark)

  test("Study.graph leaves no RDD persisted") {
    def persisted = spark.sparkContext.getPersistentRDDs.keySet
    val before = persisted
    new Study(spark).graph("DI")
    assert(persisted === before)
  }

  test("Tables.table1 over a built Study starts no Spark job") {
    val keys = Datasets.specs.map(_.key)
    keys.foreach(study.graph)
    var rows = Seq.empty[Tables.Table1Row]
    val (jobs, _) = sparkWork { rows = Tables.table1(study) }
    assert(jobs.isEmpty, s"tasks per job: $jobs")
    assert(rows.map(_.edges) === keys.map(study.graph(_).cg.numEdges.toLong))
  }

  test("one Study returns the same VertexRun instance twice") {
    assert(study.vertexRun("DI", "LDG", 4) eq study.vertexRun("DI", "LDG", 4))
  }

  test("two Studys share no cache, yet give equal quality and assign") {
    val other = new Study(spark)
    val (a, b) = (study.vertexRun("DI", "LDG", 4), other.vertexRun("DI", "LDG", 4))
    assert(study.graph("DI") ne other.graph("DI"))
    assert(a ne b)
    assert(a.quality === b.quality)
    assert(a.assign sameElements b.assign)
  }

  test("a Table 5 amortization cell is overClusterSizes over the per-k averageEpochs") {
    val (key, algo, grid) = ("DI", "LDG", Tables.table5Grid)
    val table = Tables.amortizationTable(Seq(key), Seq(algo), grid,
      study.vertexRun(_, _, _).partTime, study.dglEpoch(_, _, _, _).epochTime)
    val perK = Study.machineCounts.map { k =>
      val pairs = grid.map { p =>
        (study.dglEpoch(key, "Random", k, p).epochTime, study.dglEpoch(key, algo, k, p).epochTime)
      }
      Amortization.averageEpochs(study.vertexRun(key, algo, k).partTime, pairs)
    }
    assert(perK.exists(_.isDefined), perK)
    assert(table === Map((key, algo) -> Amortization.overClusterSizes(perK)))
  }
}
