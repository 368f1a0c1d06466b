package repro.distdgl

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.graph.Graph

/** Reference for [[FastSampler]]: the same DistDGL-style sampling written
  * as Spark DataFrame joins, with each per-vertex fanout draw a window rank
  * over [[SampleOrder]]. The equality tests in `SamplerSpec` check that
  * both make identical decisions.
  */
object SparkSampler {

  /** Message-passing adjacency `(v, nbr)`: the neighbors whose state `v`
    * aggregates. For directed graphs a vertex aggregates its in-neighbors
    * (GNN convention: messages flow along edge direction); for undirected
    * graphs both directions are present.
    */
  def adjacency(g: Graph): DataFrame = {
    val in = g.edges.select(col("dst") as "v", col("src") as "nbr")
    if (g.directed) in
    else in.union(g.edges.select(col("src") as "v", col("dst") as "nbr"))
  }

  /** [[repro.graph.GraphOps.isTrain]] as a column: the Spark SQL form of
    * the training split, the reference the driver function is tested
    * against.
    */
  def isTrain(vid: Column): Column = pmod(hash(vid, lit(42)), lit(10)) === 0

  /** [[SampleOrder.key]] as a column. */
  private def orderKey(v: Column, seed: Long): Column =
    pmod((v + lit(seed * 7919L)) * SampleOrder.Mult, lit(SampleOrder.Mod))

  /** Sample one synchronous training step for all `k` workers.
    *
    * @param adj      message adjacency `(v, nbr)` (cache it across calls)
    * @param vertexDf partition assignment `(vid, part)`; worker w owns part w
    * @param gbs      global batch size; each worker draws ≈ gbs/k roots
    */
  def sampleStep(
      adj: DataFrame,
      vertexDf: DataFrame,
      k: Int,
      fanouts: Seq[Int],
      gbs: Int,
      seed: Long,
  ): Seq[WorkerSample] = {
    val perWorker = math.max(1, gbs / k)
    val owners = vertexDf.select(col("vid") as "v", col("part") as "owner")

    // batch roots: per worker, a seeded draw of local training vertices
    val roots = vertexDf
      .filter(isTrain(col("vid")))
      .select(col("part") as "worker", col("vid") as "v")
      .withColumn("rn", row_number().over(
        Window.partitionBy("worker").orderBy(orderKey(col("v"), seed), col("v"))))
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
            .orderBy(orderKey(col("nbr"), seed + t + 1), col("nbr"))))
        .filter(col("rn") <= fanout)
        .select(col("worker"), col("v"), col("nbr"))
        .persist()
      sampledHops += sampled
      frontier = sampled.select(col("worker"), col("nbr") as "v").distinct().persist()
      frontiers += frontier
    }

    // rows per (worker, hop) of frames(i), which is hop firstHop + i
    def countsPerHop(frames: Seq[DataFrame], firstHop: Int): Map[(Int, Int), Long] =
      frames.zipWithIndex
        .map { case (df, i) => df.select(col("worker"), lit(firstHop + i) as "hop") }
        .reduce(_ union _)
        .groupBy("worker", "hop")
        .agg(count(lit(1)) as "n")
        .collect()
        .map(r => (r.getAs[Int]("worker"), r.getAs[Int]("hop")) -> r.getAs[Long]("n"))
        .toMap

    val edgeCounts = countsPerHop(sampledHops.toSeq, 1)
    val frontierCounts = countsPerHop(frontiers.toSeq, 0) // hop 0 = roots

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
