package perfbench

import repro.partition.{PartitionMetrics, Strategy}
import scala.collection.mutable

/** Plain-Scala references over a collected edge list. They share no code
  * with the program's DataFrame path, so agreement is a real check.
  */
object Reference {

  /** The five partitioning metrics, computed edge by edge. */
  def metrics(
      dataset: String,
      edges: Array[(Long, Long)],
      strategy: Strategy,
      numParts: Int): PartitionMetrics = {
    val sizes = new Array[Long](numParts)
    val replicas = mutable.HashMap.empty[Long, mutable.BitSet]
    for ((s, d) <- edges) {
      val p = strategy.pid(s, d, numParts)
      sizes(p) += 1
      replicas.getOrElseUpdate(s, mutable.BitSet.empty) += p
      replicas.getOrElseUpdate(d, mutable.BitSet.empty) += p
    }
    val n = sizes.sum
    val mean = n.toDouble / numParts
    val counts = replicas.values.map(_.size.toLong)
    PartitionMetrics(dataset, strategy.name, numParts, n, replicas.size.toLong,
      balance = if (n == 0) 1.0 else sizes.max / mean,
      nonCut = counts.count(_ == 1).toLong,
      cut = counts.count(_ > 1).toLong,
      commCost = counts.filter(_ > 1).sum,
      partStDev = math.sqrt(sizes.map(x => (x - mean) * (x - mean)).sum / numParts))
  }

  /** Relative tolerance for the floating-point metric columns. */
  val MetricTolerance = 1e-9

  /** Why `got` differs from `want`, if it does: counts must match exactly,
    * balance and stdev within [[MetricTolerance]].
    */
  def metricsMismatch(got: PartitionMetrics, want: PartitionMetrics): Option[String] = {
    def close(a: Double, b: Double) = math.abs(a - b) <= MetricTolerance * math.max(1.0, math.abs(b))
    val ok = got.partitioner == want.partitioner && got.numPartitions == want.numPartitions &&
      got.numEdges == want.numEdges && got.numVertices == want.numVertices &&
      got.nonCut == want.nonCut && got.cut == want.cut && got.commCost == want.commCost &&
      close(got.balance, want.balance) && close(got.partStDev, want.partStDev)
    if (ok) None else Some(s"metrics $got differ from reference $want")
  }

  /** splitmix64 finaliser of one directed edge. */
  def edgeHash(src: Long, dst: Long): Long = {
    var z = src * 0x9E3779B97F4A7C15L + dst
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Edge count and wrapping sum of edge hashes: equal for the same edge
    * multiset in any order.
    */
  def fingerprint(edges: Array[(Long, Long)]): (Long, Long) =
    (edges.length.toLong, edges.foldLeft(0L) { case (acc, (s, d)) => acc + edgeHash(s, d) })
}
