package repro.graph

import org.apache.spark.sql.SparkSession

/** Analogs of the paper's five graphs (Table 1), at a configurable scale.
  *
  * Paper sizes (|V| / |E|): HW 2 M / 229 M, DI 24 M / 58 M, EN 6 M / 150 M,
  * EU 7 M / 166 M, OR 3 M / 234 M. `scale = 1.0` here is 1/1000 of the
  * paper, preserving the |E|/|V| ratio (density) and the degree-skew
  * character of each category; see DESIGN.md §2 for why that suffices.
  */
object Datasets {

  /** Static description of one paper graph analog.
    * `alpha` is the degree-skew exponent; `locality` the fraction of edges
    * drawn from the latent 1-D community structure (see GraphGen.powerLaw).
    */
  final case class Spec(
      key: String,
      name: String,
      gtype: String,
      directed: Boolean,
      baseV: Long,
      baseE: Long,
      alpha: Double,
      locality: Double,
  )

  /** All five analogs. EU gets the heaviest skew and strongest community
    * structure (web graphs: host-local links dominate and volume
    * concentrates on few hosts — this is what destabilizes 2PS-L's vertex
    * balance in the paper, and why KaHIP reaches edge-cut 0.12 on EU); OR
    * gets the mildest skew and weakest communities among the power-law
    * graphs (social networks cut worst).
    */
  val specs: Seq[Spec] = Seq(
    Spec("HW", "Hollywood-2011", "Colla.", directed = false, 2000, 229000, 0.85, 0.80),
    Spec("DI", "Dimacs9-USA", "Road", directed = true, 24000, 58000, 0.0, 1.0),
    Spec("EN", "Enwiki-2021", "Wiki", directed = true, 6300, 150000, 0.90, 0.80),
    Spec("EU", "Eu-2015-tpd", "Web", directed = true, 6700, 166000, 1.10, 0.90),
    Spec("OR", "Orkut", "Social", directed = false, 3100, 234000, 0.75, 0.75),
  )

  def spec(key: String): Spec =
    specs.find(_.key == key).getOrElse(sys.error(s"unknown graph key: $key"))

  /** Materialize one analog at `scale` (1.0 = bench scale, 1/1000 paper). */
  def load(spark: SparkSession, key: String, scale: Double = 1.0, seed: Long = 11): Graph = {
    val s = spec(key)
    val numV = math.max(16L, (s.baseV * scale).toLong)
    val numE = math.max(32L, (s.baseE * scale).toLong)
    if (s.gtype == "Road") {
      // Lattice with ~2|V| structural edges; shortcuts top it up to numE.
      val side = math.max(4L, math.round(math.sqrt(numV.toDouble)))
      val structural = 2 * side * side - 2 * side
      val extra = math.max(0L, numE - structural)
      GraphGen.grid(spark, s.key, side, side, extra, s.directed, seed)
    } else {
      GraphGen.powerLaw(spark, s.key, numV, numE, s.alpha, s.directed, seed, s.locality)
    }
  }

  /** Graphs used by the DistGNN (full-batch) part of the study. The paper
    * reports DI only as an OOM case for DistGNN; Table 4 covers these four.
    */
  val distGnnKeys: Seq[String] = Seq("EN", "EU", "HW", "OR")

  /** Graphs used by the DistDGL (mini-batch) part — all five (Table 5). */
  val distDglKeys: Seq[String] = Seq("DI", "EN", "EU", "HW", "OR")
}
