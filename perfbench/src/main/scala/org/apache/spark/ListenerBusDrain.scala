package org.apache.spark

/** Waits until the Spark listener bus has delivered every queued event, so a
  * counter read right after an action sees all of that action's jobs, stages
  * and tasks. `SparkContext.listenerBus` is package-private, hence the
  * package of this file.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
