package repro.algorithms

import org.apache.spark.HashPartitioner
import org.apache.spark.graphx.{Edge, Graph, PartitionStrategy}
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

/** Bridge from the DataFrame edge-list representation (used by the generators
  * and the metric layer) to a partitioned GraphX [[Graph]] (used by the
  * algorithms).
  *
  * Partitioning is one shuffle: every edge is keyed by the strategy's
  * `getPartition(src, dst, numParts)` and moved by a `HashPartitioner` over
  * `numParts`, which sends key `p` to partition `p`. That is the shuffle
  * `Graph.partitionBy(strategy, numParts)` runs, and GraphX's
  * `EdgePartitionBuilder` sorts each partition, so the edge layout equals
  * `partitionBy`'s bit for bit ("GraphBuilder: per-partition layout equals
  * Graph.partitionBy" in AlgorithmsSpec). The graph is built once, on the
  * shuffled edges, so its vertices are hash-partitioned into the same
  * `numParts` partitions, whatever the input DataFrame's partitioning.
  */
object GraphBuilder {

  /** Build a graph whose edges are distributed by `strategy` into `numParts`
    * partitions. Vertex and edge attributes are unit values; the algorithms
    * re-attach whatever state they need.
    */
  def partitioned(
      edges: DataFrame,
      strategy: PartitionStrategy,
      numParts: Int): Graph[Int, Int] = {
    val placed = edges
      .select("src", "dst")
      .rdd
      .map { r =>
        val src = r.getLong(0)
        val dst = r.getLong(1)
        (strategy.getPartition(src, dst, numParts), Edge(src, dst, 1))
      }
      .partitionBy(new HashPartitioner(numParts))
      .values
    Graph.fromEdges(placed, defaultValue = 1,
      edgeStorageLevel = StorageLevel.MEMORY_AND_DISK,
      vertexStorageLevel = StorageLevel.MEMORY_AND_DISK)
  }
}
