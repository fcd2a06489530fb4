package perfbench

import repro.partition.Partitioners
import scala.collection.mutable

/** Per-layer metrics of one traced pass, named `<layer>.<metric>` after the
  * program's modules. Every workload reports every name; a layer the
  * workload does not call reports zeros.
  */
object Layers {
  private val MB = 1024.0 * 1024.0
  val Algorithms = Seq("pagerank", "triangles")
  val Strategies: Seq[String] = Partitioners.all.map(_.name)

  /** @param generate   the set-up's `graph.generate` spans
    * @param pass       spans of the traced pass, job spans included
    * @param commCost   reference CommCost per strategy at pagerank's grain
    * @param cachedMb   storage held by the builds, summed over cells
    * @param overheadS  traced pass time minus untraced pass time
    */
  def apply(
      generate: Seq[Span],
      pass: Seq[Span],
      sums: Int => TaskSums,
      edges: Long,
      cores: Int,
      commCost: Map[String, Long],
      cachedMb: Double,
      overheadS: Double): mutable.LinkedHashMap[String, (Double, String)] = {
    val out = mutable.LinkedHashMap.empty[String, (Double, String)]
    def put(name: String, v: Double, unit: String): Unit = out(name) = (v, unit)
    val byId = pass.map(s => s.id -> s).toMap
    def cellOf(s: Span): String = byId.get(s.parent).map(_.name.stripPrefix("cell:")).getOrElse("")
    def named(n: String) = pass.filter(_.name == n)
    def total(spans: Seq[Span]) = TaskSums.total(spans.map(s => sums(s.id)))
    def secs(spans: Seq[Span]) = spans.map(_.seconds).sum

    put("graph.generate_s", Stats.median(generate.map(_.seconds)), "s")
    put("graph.edges", edges.toDouble, "count")
    put("graph.tasks", generate.lastOption.map(s => sums(s.id).tasks.toDouble).getOrElse(0.0), "count")

    val builds = named("build")
    val b = total(builds)
    put("build.s", secs(builds), "s")
    put("build.jobs", b.jobs.toDouble, "count")
    put("build.tasks", b.tasks.toDouble, "count")
    put("build.shuffle_write_mb", b.shuffleWriteBytes / MB, "MB")
    put("build.cached_mb", cachedMb, "MB")

    val records = mutable.Map.empty[(String, String), Double]
    for (x <- Algorithms) {
      val spans = named(x)
      val t = total(spans)
      val exec = secs(spans)
      put(s"$x.exec_s", exec, "s")
      put(s"$x.jobs", t.jobs.toDouble, "count")
      put(s"$x.tasks", t.tasks.toDouble, "count")
      put(s"$x.task_busy_s", t.runMs / 1e3, "s")
      put(s"$x.core_util", if (exec > 0) t.runMs / 1e3 / (exec * cores) else 0.0, "ratio")
      put(s"$x.sched_delay_s", t.schedDelayMs / 1e3, "s")
      put(s"$x.fetch_wait_s", t.fetchWaitMs / 1e3, "s")
      put(s"$x.gc_s", t.gcMs / 1e3, "s")
      put(s"$x.shuffle_write_mb", t.shuffleWriteBytes / MB, "MB")
      put(s"$x.shuffle_records", t.shuffleWriteRecords.toDouble, "count")
      put(s"$x.spill_mb", t.spillBytes / MB, "MB")
      put(s"$x.task_skew", if (spans.isEmpty) 0.0 else t.skew, "ratio")
      put(s"$x.failed_tasks", t.failedTasks.toDouble, "count")
      for (s <- Strategies) {
        val mine = spans.filter(cellOf(_) == s)
        records((x, s)) = total(mine).shuffleWriteRecords.toDouble
        put(s"$x.$s.exec_s", secs(mine), "s")
        put(s"$x.$s.shuffle_records", records((x, s)), "count")
      }
    }
    val prCells = named("pagerank").size
    put("pagerank.tasks_per_superstep",
      if (prCells == 0) 0.0 else out("pagerank.tasks")._1 / (prCells * PageRankWorkload.Iterations), "count")
    for (s <- Strategies)
      put(s"pagerank.$s.records_per_commcost",
        commCost.get(s).filter(_ > 0).map(c => records(("pagerank", s)) / c).getOrElse(0.0), "ratio")
    val tr = Strategies.map(s => records(("triangles", s)))
    val trMean = tr.sum / tr.size
    put("triangles.layout_spread", if (trMean > 0) (tr.max - tr.min) / trMean else 0.0, "ratio")

    val selects = named("parsel.select")
    val jobs = pass.filter(_.name == "spark.job")
    def metricNs(sel: Seq[Span]) = sel.map(s => s.durationNs - Span.selfNs(s, jobs)).sum
    for (n <- ParselWorkload.PartCounts)
      put(s"metrics.s$n", metricNs(selects.filter(cellOf(_) == n.toString)) / 1e9, "s")
    val m = total(selects)
    val metricS = metricNs(selects) / 1e9
    put("metrics.jobs", m.jobs.toDouble, "count")
    put("metrics.tasks", m.tasks.toDouble, "count")
    put("metrics.task_busy_s", m.runMs / 1e3, "s")
    put("metrics.core_util", if (metricS > 0) m.runMs / 1e3 / (metricS * cores) else 0.0, "ratio")
    put("metrics.shuffle_write_mb", m.shuffleWriteBytes / MB, "MB")
    put("metrics.shuffle_records_per_edge",
      if (selects.isEmpty || edges == 0) 0.0 else m.shuffleWriteRecords.toDouble / (selects.size * edges), "ratio")
    put("parsel.self_s", selects.map(s => Span.selfNs(s, jobs)).sum / 1e9, "s")

    put("tracing.overhead_s", overheadS, "s")
    out
  }
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }
}
