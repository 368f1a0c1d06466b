package repro.distdgl

import repro.gnn.{CostModel, GnnParams}
import repro.metrics.PartitionMetrics

/** Straggler (slowest-worker) time per training phase, summed per step —
  * the paper's per-phase attribution in §5.3.
  */
final case class PhaseTimes(
    sampling: Double,
    featureFetch: Double,
    forward: Double,
    backward: Double,
    modelUpdate: Double,
)

/** One simulated DistDGL epoch. */
final case class DistDglEpoch(
    epochTime: Double,
    phases: PhaseTimes,
    totalNetworkBytes: Double,
    remoteInputVerts: Long,
    inputVertexBalance: Double,
)

/** Mini-batch training simulator in the style of DistDGL (Zheng et al.,
  * IA3 2020): each synchronous step, every worker samples a mini-batch from
  * its local training vertices (measured by [[FastSampler]]), fetches remote
  * input features, runs forward/backward, and all-reduces gradients.
  *
  * The phase structure mirrors the paper's measurement: (1) mini-batch
  * sampling, (2) feature loading, (3) forward, (4) backward (incl.
  * gradient all-reduce), (5) model update. Per step the slowest worker
  * (straggler) determines progress.
  */
object DistDglSim {

  /** CPU cost of one sampled edge (neighbor lookup, reservoir draw,
    * subgraph construction) — partitioner-independent.
    */
  private val tSampleEdge = 1.0e-6

  def epoch(
      samples: Seq[WorkerSample],
      p: GnnParams,
      k: Int,
      gbs: Int,
      totalTrainVerts: Long,
  ): DistDglEpoch = {
    val l = p.fanouts.length
    val perWorker = samples.map { s =>
      val sampling =
        s.edgesPerHop.sum * tSampleEdge +
          s.remoteExpanded * CostModel.rpcOverhead +
          l * CostModel.hopLatency
      val fetch =
        s.remoteInputVerts.toDouble * p.featureSize * CostModel.bytesPerFloat / CostModel.netBandwidth +
          s.localInputVerts.toDouble * p.featureSize * CostModel.bytesPerFloat / CostModel.memBandwidth
      // hop t (1-based) feeds GNN layer L-t+1
      val fwdFlops = (1 to l).map { t =>
        val dIn = p.dimIn(l - t + 1)
        val agg = 2.0 * s.edgesPerHop(t - 1) * dIn
        val dense = 2.0 * s.frontierPerHop(t - 1) * dIn * p.hidden
        agg + dense
      }.sum * p.computeMult
      val forward = fwdFlops / CostModel.flopsRate
      val backward = 2.0 * forward
      val netBytes = s.remoteInputVerts.toDouble * p.featureSize * CostModel.bytesPerFloat
      (sampling, fetch, forward, backward, netBytes)
    }

    val allReduce = CostModel.allReduceTime(p.modelParams)
    val modelUpdate = p.modelParams * 10.0 / CostModel.flopsRate

    // straggler per phase group: workers proceed in lock-step; the slowest
    // sampling+fetch+forward chain gates the backward all-reduce
    val fwdChain = perWorker.map(w => w._1 + w._2 + w._3).max
    val samplingStraggler = perWorker.map(_._1).max
    val fetchStraggler = perWorker.map(_._2).max
    val forwardStraggler = perWorker.map(_._3).max
    val backwardStraggler = perWorker.map(_._4).max + allReduce
    val stepTime = fwdChain + backwardStraggler + modelUpdate

    val steps = math.max(1, math.ceil(totalTrainVerts.toDouble / gbs).toInt)
    DistDglEpoch(
      epochTime = steps * stepTime,
      phases = PhaseTimes(
        sampling = steps * samplingStraggler,
        featureFetch = steps * fetchStraggler,
        forward = steps * forwardStraggler,
        backward = steps * backwardStraggler,
        modelUpdate = steps * modelUpdate,
      ),
      totalNetworkBytes = steps * (perWorker.map(_._5).sum + 2.0 * p.modelParams * CostModel.bytesPerFloat * k),
      remoteInputVerts = samples.map(_.remoteInputVerts).sum,
      inputVertexBalance = PartitionMetrics.balance(samples.map(_.inputVerts)),
    )
  }
}
