package repro.harness

import repro.amortize.Amortization
import repro.gnn.{GnnConfig, GnnParams}
import repro.graph.Datasets
import repro.partition.Partitioners

/** Harnesses that compute and print each table of the paper. Bench suites
  * call these, assert on the rows, and EXPERIMENTS.md records paper vs
  * measured values.
  */
object Tables {

  // ------------------------------------------------------------------ T1
  final case class Table1Row(key: String, name: String, gtype: String, directed: Boolean, edges: Long, vertices: Long)

  /** Table 1: the five graphs (analog sizes at the current bench scale). */
  def table1(study: Study): Seq[Table1Row] =
    Datasets.specs.map { s =>
      val g = study.graph(s.key).g
      Table1Row(s.key, s.name, s.gtype, s.directed, g.numEdges, g.numVertices)
    }

  def renderTable1(rows: Seq[Table1Row]): String =
    ("Graph | Type | Dir. | |E| | |V|" +:
      rows.map(r => f"${r.key} (${r.name}) | ${r.gtype} | ${if (r.directed) "yes" else "no"} | ${r.edges}%d | ${r.vertices}%d"))
      .mkString("\n")

  // ------------------------------------------------------------------ T2
  /** Table 2: the twelve partitioning algorithms. */
  def renderTable2: String =
    ("Partitioner | Cut-Type | Category" +:
      Partitioners.table2.map { case (n, c, cat) => s"$n | $c | $cat" }).mkString("\n")

  // ------------------------------------------------------------------ T3
  /** Table 3: the hyper-parameter grid. */
  def renderTable3: String = {
    val grid = GnnConfig.grid()
    def values(v: GnnParams => Int): String = grid.map(v).distinct.mkString(", ")
    Seq(
      "Hyper-parameter | Values",
      s"Hidden Dimension | ${values(_.hidden)}",
      s"Feature size | ${values(_.featureSize)}",
      s"Number of layers | ${values(_.layers)}",
      s"(grid size = ${grid.size} combinations)",
    ).mkString("\n")
  }

  // --------------------------------------------------------------- T4, T5
  /** Epochs until amortization per (graph, partitioner); "no" is `None`. */
  type AmortizationTable = Map[(String, String), Option[Double]]

  /** Simulated epoch time of one (graph, algo, k, params). */
  type EpochTime = (String, String, Int, GnnParams) => Double

  /** (Random, algo) epoch-time pairs over `grid` for one (graph, algo, k). */
  private def epochPairs(grid: Seq[GnnParams], epochTime: EpochTime, key: String, algo: String, k: Int)
      : Seq[(Double, Double)] =
    grid.map(p => (epochTime(key, "Random", k, p), epochTime(key, algo, k, p)))

  /** Mean speedup of algo vs Random over `grid`. */
  private def meanSpeedup(grid: Seq[GnnParams], epochTime: EpochTime, key: String, algo: String, k: Int): Double = {
    val ratios = epochPairs(grid, epochTime, key, algo, k).map { case (r, a) => r / a }
    ratios.sum / ratios.size
  }

  /** Tables 4 and 5: for every (graph, partitioner) and cluster size,
    * [[Amortization.averageEpochs]] over `grid`, then
    * [[Amortization.overClusterSizes]] over the cluster sizes.
    */
  def amortizationTable(
      keys: Seq[String],
      algos: Seq[String],
      grid: Seq[GnnParams],
      partTime: (String, String, Int) => Double,
      epochTime: EpochTime,
  ): AmortizationTable =
    (for (key <- keys; algo <- algos) yield {
      val perK = Study.machineCounts.map { k =>
        Amortization.averageEpochs(partTime(key, algo, k), epochPairs(grid, epochTime, key, algo, k))
      }
      (key, algo) -> Amortization.overClusterSizes(perK)
    }).toMap

  def renderAmortizationTable(keys: Seq[String], algos: Seq[String], t: AmortizationTable): String = {
    val header = ("Graph" +: algos).mkString(" | ")
    val rows = keys.map { key =>
      (key +: algos.map(a => Amortization.format(t((key, a))))).mkString(" | ")
    }
    (header +: rows).mkString("\n")
  }

  // ------------------------------------------------------------------ T4
  val table4Algos: Seq[String] = Seq("DBH", "2PS-L", "HDRF", "HEP10", "HEP100")

  /** The full Table 3 grid for GraphSage. */
  val table4Grid: Seq[GnnParams] = GnnConfig.grid("GraphSage")

  private def gnnEpochTime(study: Study): EpochTime = study.gnnEpoch(_, _, _, _).epochTime

  /** Mean DistGNN speedup vs Random over the hyper-parameter grid. */
  def distGnnSpeedup(study: Study, key: String, algo: String, k: Int): Double =
    meanSpeedup(table4Grid, gnnEpochTime(study), key, algo, k)

  /** Table 4: epochs until amortization for DistGNN (full-batch GraphSage),
    * averaged over the hyper-parameter grid and the four cluster sizes.
    */
  def table4(study: Study): AmortizationTable =
    amortizationTable(Datasets.distGnnKeys, table4Algos, table4Grid,
      study.edgeRun(_, _, _).partTime, gnnEpochTime(study))

  def renderTable4(t: AmortizationTable): String =
    renderAmortizationTable(Datasets.distGnnKeys, table4Algos, t)

  // ------------------------------------------------------------------ T5
  val table5Algos: Seq[String] = Seq("ByteGNN", "KaHIP", "LDG", "Spinner", "Metis")

  /** Feature/hidden combinations evaluated for Table 5 (layers fixed to 3;
    * the paper itself finds the layer count barely moves the partitioners'
    * relative effectiveness, §5.3(3)).
    */
  val table5Grid: Seq[GnnParams] = GnnConfig.grid("GraphSage").filter(_.layers == 3)

  private def dglEpochTime(study: Study): EpochTime = study.dglEpoch(_, _, _, _).epochTime

  /** Mean DistDGL speedup vs Random over the Table 5 grid. */
  def distDglSpeedup(study: Study, key: String, algo: String, k: Int): Double =
    meanSpeedup(table5Grid, dglEpochTime(study), key, algo, k)

  /** Table 5: epochs until amortization for DistDGL (mini-batch GraphSage). */
  def table5(study: Study): AmortizationTable =
    amortizationTable(Datasets.distDglKeys, table5Algos, table5Grid,
      study.vertexRun(_, _, _).partTime, dglEpochTime(study))

  def renderTable5(t: AmortizationTable): String =
    renderAmortizationTable(Datasets.distDglKeys, table5Algos, t)
}
