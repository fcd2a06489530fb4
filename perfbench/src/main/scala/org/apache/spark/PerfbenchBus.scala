package org.apache.spark

/** Lets the benchmark wait until every posted listener event has been
  * delivered, so task metrics are complete before they are read. The bus is
  * only visible inside the `org.apache.spark` package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
