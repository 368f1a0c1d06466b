package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic graph generators, all deterministic in their seed.
  *
  * Two families cover the paper's five graph categories:
  *   - [[powerLaw]]: skewed (zipf-endpoint) graphs for social / web /
  *     wiki / collaboration networks (HW, EN, EU, OR analogs);
  *   - [[grid]]: a 2-D lattice with a sprinkle of shortcut edges for the
  *     road network (DI analog) — low max degree, low skew, high diameter.
  *
  * Each generator builds its edge table in Spark, collects it once into
  * the returned [[Graph]]'s driver CSR ([[Graph.fromEdges]]) and
  * unpersists every table it cached, so Spark keeps no copy of the graph.
  * Sizes the Int-indexed CSR cannot hold are refused before any Spark job.
  */
object GraphGen {

  /** Partition count of the rows [[powerLaw]] draws from. `rand(seed)` is
    * seeded per partition, so the graph depends on how the rows are
    * partitioned; pinning the count makes it the same on every core count.
    * 4 is the count the pipeline benchmark pins, and every recorded
    * benchmark digest and edge checksum was produced with it.
    */
  private val RangePartitions = 4

  /** Draw a zipf-distributed vertex rank in [0, n): invert the continuous
    * approximation of the zipf CDF, H(x)/H(n) with H(x) = ∫ t^-alpha dt =
    * (x^(1-alpha) - 1)/(1 - alpha), giving
    * `rank = (1 + u · (n^(1-alpha) - 1))^(1/(1-alpha))`. Valid for both
    * alpha < 1 and alpha > 1 (alpha = 1 is nudged off the pole); density
    * ∝ rank^-alpha, so rank-0 vertices become hubs.
    */
  private def zipfCol(n: Long, alpha: Double, seed: Long) = {
    val a = if (math.abs(alpha - 1.0) < 1e-6) 1.000001 else alpha
    val oneMinusA = 1.0 - a
    val scale = math.pow(n.toDouble, oneMinusA) - 1.0
    least(
      lit(n - 1),
      greatest(
        lit(0L),
        (pow(lit(1.0) + rand(seed) * scale, lit(1.0 / oneMinusA)) - 1).cast(LongType),
      ),
    )
  }

  /** Power-law graph with latent community structure. Sources are
    * zipf-distributed (rank 0 = biggest hub); a `locality` fraction of the
    * edges connect to *nearby* ids (small zipf-distributed offset on a ring
    * — a 1-D latent geometry standing in for the community structure of
    * real web/social/collaboration graphs), the rest to a globally
    * zipf-drawn, permuted endpoint. Without the local part the graph is a
    * configuration-model random graph, which no partitioner can cut well;
    * real graphs are *partitionable*, and this is what restores that
    * property (see DESIGN.md §2). Self-loops removed, multi-edges
    * deduplicated, undirected edges canonicalized as src < dst.
    *
    * @param numV     number of vertices (ids dense in [0, numV))
    * @param numE     target edge count, reached via at most 8 seeded rounds;
    *                 throws up front if it exceeds the vertex pairs or the
    *                 CSR, and if the rounds end short of it
    * @param alpha    zipf exponent for endpoint draw (≈0.7 mild … ≈1.2 heavy)
    * @param locality fraction of edges drawn from the local neighborhood
    */
  def powerLaw(
      spark: SparkSession,
      name: String,
      numV: Long,
      numE: Long,
      alpha: Double,
      directed: Boolean,
      seed: Long,
      locality: Double = 0.6,
  ): Graph = {
    require(numV <= Int.MaxValue && numE <= Int.MaxValue,
      s"powerLaw $name: numV = $numV, numE = $numE; the Int-indexed CSR holds at most ${Int.MaxValue}")
    val pairs = if (directed) numV * (numV - 1) else numV * (numV - 1) / 2
    require(numE <= pairs, s"powerLaw $name: numE = $numE exceeds the $pairs vertex pairs of $numV vertices")
    // Skewed draws collapse heavily under dedup (hub-hub pairs repeat), so
    // generate in deterministic seeded chunks until the distinct-edge
    // count reaches the target, then trim. Chunks use disjoint seeds, so
    // the result is a pure function of (numV, numE, alpha, seed).
    // local offsets: 1 + zipf over [0, window), signed, on a ring. The
    // window scales with the graph's *local degree* so dense graphs (HW,
    // OR) don't saturate their neighborhoods — saturation would dedup the
    // local draws away and silently destroy the community structure.
    val meanDeg = 2.0 * numE / numV
    val window = math.max(8L, (0.75 * locality * meanDeg).toLong)
    def chunk(chunkSeed: Long, rows: Long): DataFrame = {
      val raw = spark
        .range(0, rows, 1, RangePartitions)
        .select(
          zipfCol(numV, alpha, chunkSeed) as "a",
          // A fixed multiplicative permutation decorrelates the src hub
          // set from the dst hub set (different vertices are hubs on each
          // side for directed graphs; harmless for undirected after canon).
          pmod(zipfCol(numV, alpha, chunkSeed + 7) * 2654435761L + 17L, lit(numV)) as "bGlobal",
          (zipfCol(window, 0.9, chunkSeed + 11) + 1) as "offset",
          (rand(chunkSeed + 17) < 0.5) as "neg",
          (rand(chunkSeed + 13) < locality) as "isLocal",
        )
        .withColumn(
          "bLocal",
          pmod(col("a") + when(col("neg"), -col("offset")).otherwise(col("offset")), lit(numV)),
        )
        .withColumn("b", when(col("isLocal"), col("bLocal")).otherwise(col("bGlobal")))
        .filter(col("a") =!= col("b"))
      if (directed) raw.select(col("a") as "src", col("b") as "dst")
      else
        raw.select(
          least(col("a"), col("b")) as "src",
          greatest(col("a"), col("b")) as "dst",
        )
    }
    val rounds = scala.collection.mutable.ArrayBuffer(
      chunk(seed, (numE * 1.5).toLong).dropDuplicates("src", "dst").cache())
    try {
      var have = rounds.last.count()
      while (have < numE && rounds.length < 8) {
        rounds += rounds.last
          .union(chunk(seed + 1000L * rounds.length, (numE * 1.5).toLong))
          .dropDuplicates("src", "dst")
          .cache()
        have = rounds.last.count()
      }
      require(have >= numE, s"powerLaw $name: $have distinct edges after ${rounds.length} rounds, short of numE = $numE")
      Graph.fromEdges(name, directed, numV, rounds.last.orderBy("src", "dst").limit(numE.toInt))
    } finally rounds.foreach(_.unpersist())
  }

  /** Road-network analog: rows×cols lattice (right + down edges) plus
    * `extra` *local* diagonal edges on a deterministic pseudo-random
    * subset of cells. All edges are geometrically local — random
    * long-range shortcuts would put an artificial floor under the
    * edge-cut that real road networks (paper: KaHIP cuts DI at <0.001)
    * do not have. Mean degree ≈ 4–5, skew near zero, high diameter.
    */
  def grid(
      spark: SparkSession,
      name: String,
      rows: Long,
      cols: Long,
      extra: Long,
      directed: Boolean,
      seed: Long,
  ): Graph = {
    val numV = rows * cols
    val maxE = 2 * numV - rows - cols + extra
    require(numV <= Int.MaxValue && maxE <= Int.MaxValue,
      s"grid $name: numV = $numV, up to $maxE edges; the Int-indexed CSR holds at most ${Int.MaxValue}")
    val ids = spark.range(numV).toDF("vid")
    val right = ids
      .filter(pmod(col("vid"), lit(cols)) =!= (cols - 1))
      .select(col("vid") as "src", (col("vid") + 1) as "dst")
    val down = ids
      .filter(col("vid") < (rows - 1) * cols)
      .select(col("vid") as "src", (col("vid") + cols) as "dst")
    val diag = ids
      .filter(pmod(col("vid"), lit(cols)) =!= (cols - 1) && col("vid") < (rows - 1) * cols)
      .withColumn("h", pmod((col("vid") + lit(seed * 7919L)) * 40499L, lit(999983L)))
      .orderBy("h", "vid")
      .limit(extra.toInt)
      .select(col("vid") as "src", (col("vid") + cols + 1) as "dst")
    // Cached through the collect: the cache keeps the shuffle's partitioning,
    // and the CSR's edge order depends on it until the lattice is emitted
    // in (src, dst) order with no shuffle.
    val edges = right
      .union(down)
      .union(diag)
      .dropDuplicates("src", "dst")
      .cache()
    try Graph.fromEdges(name, directed, numV, edges) finally edges.unpersist()
  }
}
