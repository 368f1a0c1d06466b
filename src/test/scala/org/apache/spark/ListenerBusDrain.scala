package org.apache.spark

/** Blocks until every listener event posted so far has been delivered.
  * Listener events arrive asynchronously, so a test that counts them drains
  * the bus before it reads its counts. `listenerBus` is package-private to
  * Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
