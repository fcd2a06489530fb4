package perfbench

import org.apache.spark.graphx.{Edge, Graph, lib => gxlib}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.algorithms.{GraphBuilder, PageRankAlg, TriangleCountAlg}
import repro.core.Parsel
import repro.partition.Partitioners

/** The generated input of one run. The program gets [[edges]], a cached
  * copy of the generated edges; `base` stays cached behind it, so a call that
  * unpersists its input (`Metrics.computeAll` does) costs a copy, not a
  * regeneration, before the next cell. `local` is the collected edge list
  * the references use.
  */
final class Input(val spark: SparkSession, val dataset: String, base: DataFrame, val local: Array[(Long, Long)]) {
  private var current = copy()

  private def copy(): DataFrame = {
    val df = base.select("src", "dst").cache()
    df.count()
    df
  }

  def edges: DataFrame = current

  /** Re-caches the program's copy if a call dropped it; true if it did. */
  def restore(): Boolean = {
    val dropped = current.storageLevel == StorageLevel.NONE
    if (dropped) current = copy()
    dropped
  }

  def unpersist(): Unit = {
    current.unpersist(blocking = true)
    base.unpersist(blocking = true)
  }

  /** A reference graph built straight from the collected edges, on few
    * partitions, sharing nothing with the program's build path.
    */
  def referenceGraph: Graph[Int, Int] = {
    val sc = spark.sparkContext
    Graph.fromEdges(sc.parallelize(local.toSeq.map { case (s, d) => Edge(s, d, 1) }, sc.defaultParallelism), 1)
  }
}

/** One timed unit of a pass. `run` is the timed region, and ends once the
  * cell's answer is materialised; the thunk it returns runs after the timer
  * stops and collects what the check needs.
  */
final case class Cell[O](label: String, run: Tracer => () => O)

/** A named workload: which Table-1 analogue it generates, at which scale,
  * and the cells of one pass. `checker` computes the reference once per
  * input and returns the per-cell check (`None` = correct).
  */
sealed abstract class Workload[O](val name: String, val dataset: String, val div: Int) {
  def cells(in: Input): Seq[Cell[O]]
  /** The untimed warm-up cell that ends set-up. */
  def warmup(in: Input): Cell[O] = cells(in).head
  def checker(in: Input): (String, O) => Option[String]
}

object Workload {
  val all: Seq[Workload[_]] = Seq(PageRankWorkload, TrianglesWorkload, ParselWorkload)
  def byName(name: String): Option[Workload[_]] = all.find(_.name == name)

  /** `GraphBuilder.partitioned`, cached and forced to materialise. A traced
    * build also counts the storage its GraphX RDDs hold.
    */
  def build(in: Input, tracer: Tracer, strategy: repro.partition.Strategy, parts: Int): Graph[Int, Int] = {
    val graph = tracer.span("build") {
      val g = GraphBuilder.partitioned(in.edges, strategy, parts).cache()
      g.edges.count()
      g.vertices.count()
      g
    }
    if (tracer.enabled) tracer.counters("build.cached_mb") +=
      in.spark.sparkContext.getRDDStorageInfo
        .filter(i => i.name != null && (i.name.contains("VertexRDD") || i.name.contains("EdgeRDD")))
        .map(i => i.memSize + i.diskSize).sum / (1024.0 * 1024.0)
    graph
  }
}

/** PageRank, one cell per strategy at PARSEL's coarse grain. */
object PageRankWorkload
    extends Workload[collection.Map[Long, Double]]("pagerank", "Pocek", 1000) {
  val Parts = 8
  val Iterations = 5
  /** Relative tolerance per vertex against `graphx.lib.PageRank`. */
  val Tolerance = 1e-9
  private val ResetProb = 0.15

  def cells(in: Input): Seq[Cell[collection.Map[Long, Double]]] =
    Partitioners.all.map { s =>
      Cell(s.name, tracer => {
        val graph = Workload.build(in, tracer, s, Parts)
        val ranks = tracer.span("pagerank") {
          val r = PageRankAlg.run(graph, Iterations)
          r.vertices.count()
          r
        }
        () => ranks.vertices.collectAsMap()
      })
    }

  def checker(in: Input): (String, collection.Map[Long, Double]) => Option[String] = {
    // Unnormalised, as PageRankAlg: the library rescales ranks when sinks exist.
    val want = gxlib.PageRank.runWithOptions(in.referenceGraph, Iterations, ResetProb, None, normalized = false)
      .vertices.collectAsMap()
    (_, got) =>
      if (got.size != want.size) Some(s"${got.size} ranked vertices, reference has ${want.size}")
      else want.collectFirst {
        case (v, r) if !got.get(v).exists(g => math.abs(g - r) <= Tolerance * math.abs(r)) =>
          s"vertex $v: rank ${got.get(v)}, reference $r"
      }
  }
}

/** TriangleCount total, one cell per strategy at PARSEL's fine grain. */
object TrianglesWorkload extends Workload[Long]("triangles", "Orkut", 1000) {
  val Parts = 16

  def cells(in: Input): Seq[Cell[Long]] =
    Partitioners.all.map { s =>
      Cell(s.name, tracer => {
        val graph = Workload.build(in, tracer, s, Parts)
        val total = tracer.span("triangles")(TriangleCountAlg.total(graph))
        () => total
      })
    }

  def checker(in: Input): (String, Long) => Option[String] = {
    val want = gxlib.TriangleCount.run(in.referenceGraph).vertices.map(_._2.toLong).fold(0L)(_ + _) / 3
    (_, got) => if (got == want) None else Some(s"$got triangles, reference $want")
  }
}

/** PARSEL's EdgeBound pick at 128 and then at 256 partitions, plus the
  * VertexBound pick from the same metrics. Shares its input with pagerank.
  */
object ParselWorkload
    extends Workload[(Parsel.Selection, repro.partition.PartitionMetrics)](
      "parsel", PageRankWorkload.dataset, PageRankWorkload.div) {
  val PartCounts = Seq(128, 256)

  private def cell(in: Input, n: Int, candidates: Seq[repro.partition.Strategy]) =
    Cell(n.toString, tracer => {
      val picks = tracer.span("parsel.select") {
        val edgeBound = Parsel.select(in.dataset, in.edges, Parsel.EdgeBound, n, candidates)
        (edgeBound, Parsel.selectFromMetrics(edgeBound.metrics, Parsel.VertexBound))
      }
      () => picks
    })

  def cells(in: Input): Seq[Cell[(Parsel.Selection, repro.partition.PartitionMetrics)]] =
    PartCounts.map(cell(in, _, Partitioners.all))

  /** The same select over one candidate: it warms every code path a cell
    * runs at a sixth of a cell's cost.
    */
  override def warmup(in: Input): Cell[(Parsel.Selection, repro.partition.PartitionMetrics)] =
    cell(in, PartCounts.head, Partitioners.all.take(1))

  def checker(in: Input): (String, (Parsel.Selection, repro.partition.PartitionMetrics)) => Option[String] = {
    val want = PartCounts.map(n =>
      n.toString -> Partitioners.all.map(s => Reference.metrics(in.dataset, in.local, s, n))).toMap
    (label, got) => {
      val (edgeBound, vertexBound) = got
      val rows = want(label)
      def minimal(v: Long, crit: Parsel.AlgoClass) = v == rows.map(Parsel.criterion(_, crit)).min
      if (edgeBound.metrics.size != rows.size) Some(s"${edgeBound.metrics.size} metric rows, expected ${rows.size}")
      else edgeBound.metrics.zip(rows).flatMap { case (g, w) => Reference.metricsMismatch(g, w) }.headOption
        .orElse(Option.when(!minimal(edgeBound.scores(edgeBound.strategy.name), Parsel.EdgeBound))(
          s"EdgeBound pick ${edgeBound.strategy} does not minimise CommCost"))
        .orElse(Option.when(!minimal(Parsel.criterion(vertexBound, Parsel.VertexBound), Parsel.VertexBound))(
          s"VertexBound pick ${vertexBound.partitioner} does not minimise Cut"))
    }
  }
}
