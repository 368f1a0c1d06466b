package repro.distgnn

import repro.gnn.{CostModel, GnnParams}
import repro.metrics.EdgeCutQuality

/** Per-machine accounting of one full-batch training epoch. */
final case class MachineEpoch(
    part: Int,
    computeTime: Double,
    commTime: Double,
    networkBytes: Double,
    memoryBytes: Double,
)

/** One simulated DistGNN epoch over a given edge partitioning. */
final case class DistGnnEpoch(
    epochTime: Double,
    modelSyncTime: Double,
    totalNetworkBytes: Double,
    totalMemoryBytes: Double,
    maxMemoryBytes: Double,
    memoryBalance: Double,
    oom: Boolean,
    machines: Seq[MachineEpoch],
)

/** Full-batch training simulator in the style of DistGNN (Md et al., SC'21):
  * vertex-cut partitions, every machine processes its local edges each
  * epoch, and cut (replicated) vertices synchronize partial aggregates and
  * gradients across their copies every layer.
  *
  * All loads (edges, covered vertices, sync vertices per machine) are
  * *measured* from the actual partition assignment via
  * [[repro.metrics.PartitionMetrics.edgeCutQuality]]; this class only maps
  * load → seconds/bytes with [[CostModel]]. The paper's key correlations
  * (replication factor ↔ network traffic, R²≥0.98; replication factor ↔
  * memory, R²≥0.99; vertex balance ↔ memory balance) hold structurally.
  */
object DistGnnSim {

  def epoch(q: EdgeCutQuality, p: GnnParams): DistGnnEpoch = {
    val dims = (1 to p.layers).map(p.dimIn) // input dim of each layer
    val machines = q.perPart.map { m =>
      // forward: aggregate along edges + dense update per covered vertex
      val fwdFlops = dims.map { d =>
        2.0 * m.edges * d + 2.0 * m.verts * d * p.hidden
      }.sum * p.computeMult
      val flops = 3.0 * fwdFlops // backward ≈ 2× forward
      // each layer, every sync vertex exchanges its activation (forward)
      // and its gradient (backward): 2 directions × 2 passes
      val bytes = dims.map(d => 4.0 * m.syncVerts * d * CostModel.bytesPerFloat).sum
      // graph structure + features + per-layer activations and gradients
      val mem = 8.0 * m.edges +
        m.verts.toDouble * CostModel.bytesPerFloat *
        (p.featureSize + p.layers.toDouble * p.hidden) * 2.0
      MachineEpoch(
        part = m.part,
        computeTime = flops / CostModel.flopsRate,
        commTime = bytes / CostModel.netBandwidth,
        networkBytes = bytes,
        memoryBytes = mem,
      )
    }
    val modelSync = CostModel.allReduceTime(p.modelParams)
    val straggler = machines.map(m => m.computeTime + m.commTime).max
    val mems = machines.map(_.memoryBytes)
    DistGnnEpoch(
      epochTime = straggler + modelSync,
      modelSyncTime = modelSync,
      totalNetworkBytes = machines.map(_.networkBytes).sum,
      totalMemoryBytes = mems.sum,
      maxMemoryBytes = mems.max,
      memoryBalance = if (mems.sum == 0) 1.0 else mems.max / (mems.sum / mems.size),
      oom = mems.max > CostModel.memBudgetPerMachine,
      machines = machines,
    )
  }
}
