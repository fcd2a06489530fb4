package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** The five partitioning metrics of Tables 2/3 for one (graph, strategy,
  * numPartitions) combination. Semantics per the paper's Appendix A:
  *
  *   - `balance`   — edges in the biggest partition / mean edges per partition
  *                   (mean over all `numPartitions` slots, empty ones included);
  *   - `nonCut`    — vertices resident in exactly one partition;
  *   - `cut`       — vertices replicated into more than one partition;
  *   - `commCost`  — total replicas of cut vertices: the per-superstep message
  *                   count of a BSP computation keeping fixed state per vertex;
  *   - `partStDev` — population standard deviation of per-partition edge counts.
  */
final case class PartitionMetrics(
    dataset: String,
    partitioner: String,
    numPartitions: Int,
    numEdges: Long,
    numVertices: Long,
    balance: Double,
    nonCut: Long,
    cut: Long,
    commCost: Long,
    partStDev: Double) {

  /** One formatted row in the layout of the paper's Tables 2/3. */
  def tableRow: String =
    f"$dataset%-14s $partitioner%-5s $balance%7.2f $nonCut%12d $cut%12d $commCost%14d $partStDev%14.2f"
}

/** Single-pass computation of the partitioning metrics for a panel of
  * strategies.
  *
  * Input edge lists are DataFrames with `src: Long, dst: Long` columns. A
  * panel costs two Spark jobs however many strategies it holds:
  *
  *   1. one scan assigns every edge under every strategy and sums a
  *      `strategies × numParts` matrix of partition sizes;
  *   2. one shuffle keyed by `(strategy index, vertex)` ORs together a bitset
  *      of the partitions holding each vertex — the per-vertex view of
  *      GraphX's routing tables — and folds the replica counts into
  *      per-strategy counters. The reduce side keeps the input's partition
  *      count.
  *
  * The input is neither cached nor unpersisted, so a caller's cache survives.
  */
object Metrics {

  /** Column names required of every edge list. */
  val Src = "src"
  val Dst = "dst"

  /** Per-strategy replica counters, in this order. */
  private final val NonCut   = 0
  private final val Cut      = 1
  private final val CommCost = 2
  private final val Vertices = 3
  private final val Counters = 4

  /** Edge list with the strategy's partition id appended as `pid`: the
    * assignment the metrics describe, exported for the DuckDB oracle and the
    * probes.
    */
  def withPid(edges: DataFrame, strategy: Strategy, numParts: Int): DataFrame =
    edges.withColumn("pid", strategy.pidColumn(col(Src), col(Dst), numParts))

  /** All five metrics for one (graph, strategy, numParts) combination. */
  def compute(
      dataset: String,
      edges: DataFrame,
      strategy: Strategy,
      numParts: Int): PartitionMetrics =
    computeAll(dataset, edges, numParts, Seq(strategy)).head

  /** Metrics for every strategy in `strategies` over one graph, in order. */
  def computeAll(
      dataset: String,
      edges: DataFrame,
      numParts: Int,
      strategies: Seq[Strategy] = Partitioners.all): Seq[PartitionMetrics] = {
    require(numParts > 0, s"numParts must be positive, got $numParts")
    val panel = strategies.toArray
    val k     = panel.length
    val pairs = edges.select(col(Src).cast("long"), col(Dst).cast("long")).rdd
      .map(r => (r.getLong(0), r.getLong(1)))

    // Row i * numParts + p: edges strategy i assigns to partition p.
    val sizes = pairs.treeAggregate(new Array[Long](k * numParts))(
      (acc, e) => {
        for (i <- 0 until k) acc(i * numParts + panel(i).pid(e._1, e._2, numParts)) += 1
        acc
      },
      addInto)

    val words = (numParts + 63) / 64
    val counters = pairs
      .flatMap { case (s, d) =>
        Iterator.range(0, k).flatMap { i =>
          val p = panel(i).pid(s, d, numParts)
          Iterator(((i, s), p), ((i, d), p))
        }
      }
      .aggregateByKey(new Array[Long](words), math.max(1, pairs.getNumPartitions))(
        (bits, p) => { bits(p >>> 6) |= 1L << (p & 63); bits },
        (a, b) => { for (j <- a.indices) a(j) |= b(j); a })
      .treeAggregate(new Array[Long](k * Counters))(
        (acc, kv) => {
          val base     = kv._1._1 * Counters
          val replicas = kv._2.map(java.lang.Long.bitCount).sum
          if (replicas == 1) acc(base + NonCut) += 1
          else {
            acc(base + Cut) += 1
            acc(base + CommCost) += replicas
          }
          acc(base + Vertices) += 1
          acc
        },
        addInto)

    panel.indices.map { i =>
      val part      = sizes.slice(i * numParts, (i + 1) * numParts)
      val numEdges  = part.sum
      val mean      = numEdges.toDouble / numParts
      val balance   = if (numEdges == 0) 1.0 else part.max / mean
      val partStDev = math.sqrt(part.map(s => (s - mean) * (s - mean)).sum / numParts)
      val c         = i * Counters
      PartitionMetrics(dataset, panel(i).name, numParts, numEdges, counters(c + Vertices),
        balance, counters(c + NonCut), counters(c + Cut), counters(c + CommCost), partStDev)
    }
  }

  private def addInto(a: Array[Long], b: Array[Long]): Array[Long] = {
    for (j <- a.indices) a(j) += b(j)
    a
  }
}
