package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.{Datasets, GraphOps, GraphProfile}
import repro.partition.{Metrics, PartitionMetrics, Partitioners}

/** Shared drivers behind the per-table jobs and benchmark suites, so the
  * spark-submit entrypoints and `bench/test` exercise the same code.
  *
  * Scale knobs (all env-overridable, see README):
  *   - `REPRO_METRIC_DIV`  (default 100)  — Tables 1–3 run at 1/100 of the
  *     paper's graph sizes with the paper's exact partition counts (128/256);
  *   - `REPRO_TIMED_DIV`   (default 1000) — the timed correlation sweep runs
  *     at 1/1000 scale;
  *   - `REPRO_COARSE`/`REPRO_FINE` (default 8/16) — partition counts for the
  *     timed sweep, the local[*] analogue of the paper's 128/256 on 128 cores.
  */
object Experiments {

  private def envInt(name: String, default: Int): Int =
    sys.env.get(name).map(_.toInt).getOrElse(default)

  def metricDiv: Int = envInt("REPRO_METRIC_DIV", 100)
  def timedDiv: Int  = envInt("REPRO_TIMED_DIV", 2000)
  def coarseParts: Int = envInt("REPRO_COARSE", 8)
  def fineParts: Int   = envInt("REPRO_FINE", 16)

  /** The paper's partition-count configurations for the metric tables. */
  val PaperCoarse = 128
  val PaperFine   = 256

  // ---------------------------------------------------------------- Table 1

  /** Characterize every dataset analogue (Table 1). Pseudo-diameter is only
    * computed for the single-component social graphs, as in the paper all
    * multi-component datasets report ∞.
    */
  def table1(spark: SparkSession, div: Int = metricDiv): Seq[(Datasets.Spec, GraphProfile)] =
    Datasets.all.map { spec =>
      val edges = Datasets.edges(spark, spec, div)
      val profile = GraphOps.profile(spec.name, edges,
        numParts = fineParts, includeDiameter = spec.paperDiameter.isDefined)
      (spec, profile)
    }

  // ------------------------------------------------------------ Tables 2, 3

  /** All five metrics for every (dataset, partitioner) at `numParts`
    * (Table 2 with 128 partitions, Table 3 with 256).
    */
  def metricsTable(spark: SparkSession, numParts: Int, div: Int = metricDiv,
      datasets: Seq[Datasets.Spec] = Datasets.all): Seq[PartitionMetrics] =
    datasets.flatMap { spec =>
      val edges = Datasets.edges(spark, spec, div)
      Metrics.computeAll(spec.name, edges, numParts)
    }

  // ------------------------------------------- Figures 3–6 as a table sweep

  /** Everything measured for one sweep cell: wall time plus the metrics the
    * paper correlates against it.
    */
  final case class Cell(run: Runner.TimedRun, metrics: PartitionMetrics)

  /** Metrics are a pure function of (dataset, div, strategy, parts); cache
    * them across the four algorithm sweeps so each (dataset, parts) panel is
    * computed once per JVM.
    */
  private val metricsCache =
    scala.collection.concurrent.TrieMap.empty[(String, Int, String, Int), PartitionMetrics]

  /** The timed-sweep dataset panel: one representative per structural family.
    * The paper sweeps all nine; the three road networks and the two follow
    * crawls behave as identical groups in its figures, so the single-machine
    * reproduction times one of each (the siblings' metric shapes are still
    * fully covered by Tables 2/3).
    */
  def timedDatasets: Seq[Datasets.Spec] =
    Seq("RoadNet-PA", "YouTube", "Pocek", "Orkut", "socLiveJournal", "follow-dec")
      .map(Datasets.byName)

  /** Timed sweep of every (dataset × partitioner × granularity) for one
    * algorithm. SSSP uses `numSources` deterministic landmarks per dataset,
    * mirroring the paper's 5 random sources; the road networks are excluded
    * for SSSP as in the paper (their SSSP runs did not complete). One untimed
    * warmup run per dataset absorbs JIT/page-cache effects before the timed
    * cells.
    */
  def timedSweep(
      spark: SparkSession,
      kind: Parsel.AlgoKind,
      div: Int = timedDiv,
      partsList: Seq[Int] = Seq(coarseParts, fineParts),
      datasets: Seq[Datasets.Spec] = timedDatasets,
      reps: Int = 1,
      warmups: Int = 0,
      numSources: Int = 2,
      prIters: Int = 10): Seq[Cell] = {
    val selected = kind match {
      case Parsel.SSSP => datasets.filterNot(_.name.startsWith("RoadNet"))
      case _           => datasets
    }
    selected.flatMap { spec =>
      val edges = Datasets.edges(spark, spec, div).cache()
      edges.count() // materialize outside the timed region
      val algo: Runner.Algo = kind match {
        case Parsel.PR   => Runner.PageRank(prIters)
        case Parsel.CC   => Runner.ConnectedComponents()
        case Parsel.TR   => Runner.TriangleCount
        case Parsel.SSSP => Runner.Sssp(Runner.sampleVertices(edges, numSources))
      }
      // Untimed per-dataset warmup: first-run JIT effects otherwise pollute
      // the first strategy's timing.
      Runner.timeRun(spec.name, edges, algo, Partitioners.RVC, partsList.head,
        reps = 1, warmups = 0)
      val cells = partsList.flatMap { parts =>
        def key(strategy: String) = (spec.name, div, strategy, parts)
        if (!Partitioners.all.forall(s => metricsCache.contains(key(s.name))))
          Metrics.computeAll(spec.name, edges, parts).foreach(m => metricsCache.put(key(m.partitioner), m))
        Partitioners.all.map { strategy =>
          val run = Runner.timeRun(spec.name, edges, algo, strategy, parts,
            reps = reps, warmups = warmups)
          Cell(run, metricsCache(key(strategy.name)))
        }
      }
      edges.unpersist()
      cells
    }
  }

  /** Pearson correlation of wall time against a metric over all cells of one
    * granularity — the number each of Figures 3–6 reports.
    */
  def correlation(cells: Seq[Cell], parts: Int, metric: PartitionMetrics => Long): Double = {
    val subset = cells.filter(_.run.numPartitions == parts)
    Runner.pearson(subset.map(c => metric(c.metrics).toDouble),
      subset.map(_.run.millis))
  }

  /** Best (fastest) partitioner per dataset at one granularity. */
  def bestPartitioner(cells: Seq[Cell], parts: Int): Map[String, String] =
    cells.filter(_.run.numPartitions == parts)
      .groupBy(_.run.dataset)
      .map { case (d, cs) => d -> cs.minBy(_.run.millis).run.partitioner }

  /** Median wall time per dataset at one granularity (for the granularity-
    * effect comparison: coarse vs fine).
    */
  def timeByDataset(cells: Seq[Cell], parts: Int): Map[String, Double] =
    cells.filter(_.run.numPartitions == parts)
      .groupBy(_.run.dataset)
      .map { case (d, cs) => d -> cs.map(_.run.millis).min }
}
