package repro.amortize

/** Partitioning-time amortization (paper RQ-5, Tables 4 and 5): the number
  * of training epochs after which the time invested in partitioning is paid
  * back by faster epochs, relative to (free) random partitioning.
  */
object Amortization {

  /** `epochs = t_part / (t_epoch(Random) − t_epoch(P))`; `None` when the
    * partitioner trains *slower* than random ("no" in the paper's tables).
    */
  def epochs(tPart: Double, tEpochRandom: Double, tEpochAlgo: Double): Option[Double] = {
    val saving = tEpochRandom - tEpochAlgo
    if (saving <= 0) None else Some(tPart / saving)
  }

  /** Average amortization over many (configuration, savings) pairs the way
    * the paper reports it: one number per (graph, partitioner), "no" when
    * the partitioner is a net slowdown across the configurations.
    */
  def averageEpochs(tPart: Double, pairs: Seq[(Double, Double)]): Option[Double] = {
    val savings = pairs.map { case (r, a) => r - a }
    if (savings.sum <= 0) None
    else {
      // a positive sum has at least one positive saving, so perConfig is non-empty
      val perConfig = pairs.flatMap { case (r, a) => epochs(tPart, r, a) }
      Some(perConfig.sum / perConfig.size)
    }
  }

  /** One table cell from the per-cluster-size averages of [[averageEpochs]]:
    * their mean, or "no" when fewer than half the cluster sizes amortize.
    */
  def overClusterSizes(perK: Seq[Option[Double]]): Option[Double] = {
    val defined = perK.flatten
    if (defined.size < perK.size / 2.0) None
    else Some(defined.sum / defined.size)
  }

  def format(o: Option[Double]): String = o.map(e => f"$e%.2f").getOrElse("no")
}
