package org.apache.spark

/** Blocks until every listener event posted so far has been delivered.
  * Listener events arrive asynchronously; the benchmark drains the bus at
  * each pass boundary so Spark counters land in the pass that caused them.
  * `listenerBus` is package-private to Spark, hence this package.
  */
object BusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
