package repro.partition.vertex

import repro.graph.CompactGraph
import repro.partition._

/** ByteGNN-style partitioning (Zheng et al., VLDB 2022). GNN-workload-aware
  * edge-cut: grow small BFS blocks around *training* vertices (the roots of
  * mini-batch sampling), then pack blocks onto partitions so that training
  * vertices are balanced and blocks land next to their neighbors — keeping
  * each training vertex's k-hop neighborhood mostly local.
  */
object ByteGnn extends VertexPartitioner {
  val name = "ByteGNN"
  val category = "In-memory partitioning"

  private val BfsDepth = 2

  def partition(g: CompactGraph, k: Int, trainMask: Array[Boolean], seed: Long): VertexPartitionResult = {
    val n = g.numVertices
    var heavyOps = 0L
    val blockOf = Array.fill(n)(-1)
    val blocks = new scala.collection.mutable.ArrayBuffer[scala.collection.mutable.ArrayBuffer[Int]]()
    val blockCap = math.max(4, n / (8 * k))

    def newBlock(root: Int): Unit = {
      val members = new scala.collection.mutable.ArrayBuffer[Int]()
      val bid = blocks.length
      val queue = new scala.collection.mutable.Queue[(Int, Int)]()
      blockOf(root) = bid; members += root; queue.enqueue((root, 0))
      while (queue.nonEmpty && members.length < blockCap) {
        val (v, d) = queue.dequeue()
        if (d < BfsDepth) {
          var j = g.adjOff(v)
          while (j < g.adjOff(v + 1) && members.length < blockCap) {
            val w = g.adjNbr(j)
            heavyOps += 1
            if (blockOf(w) < 0) {
              blockOf(w) = bid; members += w; queue.enqueue((w, d + 1))
            }
            j += 1
          }
        }
      }
      blocks += members
    }

    // 1. blocks seeded at training vertices (the sampling roots)
    val order = StreamOrder.edgeOrder(n, seed)
    var oi = 0
    while (oi < n) {
      val v = order(oi)
      if (trainMask(v) && blockOf(v) < 0) newBlock(v)
      oi += 1
    }
    // 2. leftover vertices form their own BFS blocks
    oi = 0
    while (oi < n) {
      val v = order(oi)
      if (blockOf(v) < 0) newBlock(v)
      oi += 1
    }

    // 3. pack blocks: balance training vertices first, then total size,
    //    tie-broken toward the partition the block has most edges to.
    val part = new Array[Int](n)
    val trainLoad = new Array[Long](k)
    val sizeLoad = new Array[Long](k)
    val blockTrain = blocks.map(_.count(trainMask)).toArray
    val blockIdx = blocks.indices.sortBy(b => (-blockTrain(b), -blocks(b).length))
    val assignedBlock = new Array[Boolean](blocks.length)
    val affinity = new Array[Long](k)
    blockIdx.foreach { b =>
      java.util.Arrays.fill(affinity, 0L)
      blocks(b).foreach { v =>
        var j = g.adjOff(v)
        while (j < g.adjOff(v + 1)) {
          val w = g.adjNbr(j)
          if (blockOf(w) != b && assignedBlock(blockOf(w)))
            affinity(part(w)) += 1
          j += 1
        }
      }
      heavyOps += k
      // hierarchical packing: blocks containing training vertices balance
      // the training load first (they are the sampling roots); pure
      // neighborhood blocks balance total size. Edge affinity breaks ties
      // toward locality.
      val hasTrain = blockTrain(b) > 0
      var best = 0
      var p = 1
      while (p < k) {
        val better =
          if (hasTrain)
            trainLoad(p) < trainLoad(best) ||
              (trainLoad(p) == trainLoad(best) && sizeLoad(p) < sizeLoad(best)) ||
              (trainLoad(p) == trainLoad(best) && sizeLoad(p) == sizeLoad(best) &&
                affinity(p) > affinity(best))
          else
            sizeLoad(p) < sizeLoad(best) ||
              (sizeLoad(p) == sizeLoad(best) && affinity(p) > affinity(best))
        if (better) best = p
        p += 1
      }
      blocks(b).foreach(v => part(v) = best)
      assignedBlock(b) = true
      trainLoad(best) += blockTrain(b)
      sizeLoad(best) += blocks(b).length
    }

    VertexPartitionResult(part, PartitionCost(heavyOps = heavyOps, passes = 2))
  }
}
