package repro.distdgl

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.graph.{Graph, GraphOps}

/** Measured mini-batch sample of one worker in one training step.
  *
  * @param roots          batch roots (training vertices) on this worker
  * @param edgesPerHop    sampled edges at hop t (t = 1 … L, outermost last)
  * @param frontierPerHop distinct frontier sizes, hop 0 (roots) … hop L
  * @param remoteExpanded frontier vertices expanded whose owner is another
  *                       worker (each costs a sampling RPC)
  * @param inputVerts     distinct vertices in the computation graph
  * @param remoteInputVerts input vertices owned by another worker — their
  *                       features must be fetched over the network (the
  *                       paper's "remote vertices")
  */
final case class WorkerSample(
    worker: Int,
    roots: Long,
    edgesPerHop: Seq[Long],
    frontierPerHop: Seq[Long],
    remoteExpanded: Long,
    inputVerts: Long,
    remoteInputVerts: Long,
) {
  def localInputVerts: Long = inputVerts - remoteInputVerts
}

/** DistDGL-style neighborhood sampling, executed as Spark DataFrame joins:
  * every worker draws a mini-batch from its *local* training vertices and
  * expands the k-hop neighborhood with per-vertex fanout caps (window rank
  * over a seeded shuffle). All the quantities the paper shows drive
  * DistDGL performance — mini-batch computation-graph sizes, input-vertex
  * balance, remote vertices — are measured, not modelled.
  */
object Sampler {

  /** Sample one synchronous training step for all `k` workers.
    *
    * @param adj      message adjacency `(v, nbr)` (cache it across calls)
    * @param vertexDf partition assignment `(vid, part)`; worker w owns part w
    * @param gbs      global batch size; each worker draws ≈ gbs/k roots
    */
  def sampleStep(
      g: Graph,
      spark: SparkSession,
      adj: DataFrame,
      vertexDf: DataFrame,
      k: Int,
      fanouts: Seq[Int],
      gbs: Int,
      seed: Long,
  ): Seq[WorkerSample] = {
    val perWorker = math.max(1, gbs / k)
    val owners = vertexDf.select(col("vid") as "v", col("part") as "owner")

    // batch roots: per worker, a seeded draw of local training vertices.
    // The ordering key is the shared arithmetic mix (same as FastSampler,
    // which must make identical decisions — tested for equality).
    val roots = GraphOps
      .split(g, spark)
      .filter(col("role") === "train")
      .join(vertexDf, "vid")
      .select(col("part") as "worker", col("vid") as "v")
      .withColumn("rn", row_number().over(
        Window.partitionBy("worker").orderBy(SampleOrder.col(col("v"), seed), col("v"))))
      .filter(col("rn") <= perWorker)
      .select("worker", "v")
      .persist()

    var frontier = roots
    val frontiers = scala.collection.mutable.ArrayBuffer[DataFrame](roots)
    val sampledHops = scala.collection.mutable.ArrayBuffer[DataFrame]()
    fanouts.zipWithIndex.foreach { case (fanout, t) =>
      val sampled = frontier
        .join(adj, "v")
        .withColumn("rn", row_number().over(
          Window
            .partitionBy("worker", "v")
            .orderBy(SampleOrder.col(col("nbr"), seed + t + 1), col("nbr"))))
        .filter(col("rn") <= fanout)
        .select(col("worker"), col("v"), col("nbr"))
        .persist()
      sampledHops += sampled
      frontier = sampled.select(col("worker"), col("nbr") as "v").distinct().persist()
      frontiers += frontier
    }

    val hopLit = (df: DataFrame, t: Int) => df.withColumn("hop", lit(t))

    // edges sampled per (worker, hop)
    val edgeCounts = sampledHops.zipWithIndex
      .map { case (df, t) => hopLit(df.select("worker"), t + 1) }
      .reduce(_ union _)
      .groupBy("worker", "hop")
      .agg(count(lit(1)) as "n")
      .collect()
      .map(r => (r.getAs[Int]("worker"), r.getAs[Int]("hop")) -> r.getAs[Long]("n"))
      .toMap

    // frontier sizes per (worker, hop), hop 0 = roots
    val frontierCounts = frontiers.zipWithIndex
      .map { case (df, t) => hopLit(df.select("worker"), t) }
      .reduce(_ union _)
      .groupBy("worker", "hop")
      .agg(count(lit(1)) as "n")
      .collect()
      .map(r => (r.getAs[Int]("worker"), r.getAs[Int]("hop")) -> r.getAs[Long]("n"))
      .toMap

    // remote expansions: frontiers 0 … L-1 are the sets we sample *from*
    val remoteExpanded = frontiers.dropRight(1)
      .map(_.select("worker", "v"))
      .reduce(_ union _)
      .join(owners, "v")
      .filter(col("owner") =!= col("worker"))
      .groupBy("worker")
      .agg(count(lit(1)) as "n")
      .collect()
      .map(r => r.getAs[Int]("worker") -> r.getAs[Long]("n"))
      .toMap

    // distinct input vertices and how many are remote
    val inputs = frontiers
      .map(_.select("worker", "v"))
      .reduce(_ union _)
      .distinct()
      .join(owners, "v")
      .groupBy("worker")
      .agg(
        count(lit(1)) as "inputs",
        sum(when(col("owner") =!= col("worker"), 1L).otherwise(0L)) as "remote",
      )
      .collect()
      .map(r => r.getAs[Int]("worker") -> (r.getAs[Long]("inputs"), r.getAs[Long]("remote")))
      .toMap

    val result = (0 until k).map { w =>
      val (in, rem) = inputs.getOrElse(w, (0L, 0L))
      WorkerSample(
        worker = w,
        roots = frontierCounts.getOrElse((w, 0), 0L),
        edgesPerHop = fanouts.indices.map(t => edgeCounts.getOrElse((w, t + 1), 0L)),
        frontierPerHop = (0 to fanouts.length).map(t => frontierCounts.getOrElse((w, t), 0L)),
        remoteExpanded = remoteExpanded.getOrElse(w, 0L),
        inputVerts = in,
        remoteInputVerts = rem,
      )
    }

    (frontiers ++ sampledHops).foreach(_.unpersist())
    result
  }
}
