package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession
import repro.graph.Datasets
import repro.partition.Partitioners
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

/** Runs one workload in this JVM and prints its metrics; the last line of
  * standard output is the result object. Usage:
  * {{{
  * perfbench.Main --workload <pagerank|triangles|parsel> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  * With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
  * traces the first pass, then runs the untraced passes, and reports the
  * per-layer metrics and writes the spans file.
  */
object Main {

  final case class Args(workload: Workload[_], seed: Long, seconds: Int, trace: Boolean, out: File)

  val Usage = "usage: --workload <" + Workload.all.map(_.name).mkString("|") +
    "> --seed <n> --seconds <s> --trace <0|1> --out <dir>"

  def parse(args: Array[String]): Either[String, Args] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    if (args.length % 2 != 0 || kv.size * 2 != args.length) Left("arguments must be --key value pairs")
    else for {
      w  <- need("workload").flatMap(n => Workload.byName(n).toRight(s"unknown workload '$n'"))
      s  <- need("seed").flatMap(v => v.toLongOption.toRight(s"bad --seed '$v'"))
      t  <- need("seconds").flatMap(v => v.toIntOption.filter(_ > 0).toRight(s"bad --seconds '$v'"))
      tr <- need("trace").flatMap(v => Map("0" -> false, "1" -> true).get(v).toRight(s"bad --trace '$v'"))
      o  <- need("out")
    } yield Args(w, s, t, tr, new File(o))
  }

  def main(args: Array[String]): Unit = parse(args) match {
    case Left(err) =>
      System.err.println(s"perfbench: $err\n$Usage")
      System.exit(2)
    case Right(a) =>
      val ok = Try(new Run(a.workload, a).apply())
      ok.failed.foreach(_.printStackTrace())
      System.exit(if (ok.isSuccess) 0 else 1)
  }
}

/** Starts a session and generates a tiny input, so that one JVM loads the
  * classes every run's set-up needs; the build dumps that JVM's classes into
  * the class-data archive the timed runs start from. Usage: `perfbench.Train <dir>`.
  */
object Train {
  def main(args: Array[String]): Unit = {
    val spark = Run.session("perfbench-train", new File(args(0)), Run.cores)
    Datasets.edges(spark, Datasets.byName(PageRankWorkload.dataset), 100000).collect()
    spark.stop()
    System.exit(0)
  }
}

object Run {
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  /** The jobs' session settings (jobs/JobSession) on `local[cores]`, with
    * Spark's scratch space under `out`.
    */
  def session(name: String, out: File, cores: Int): SparkSession = {
    out.mkdirs()
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", new File(out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(out, "warehouse").getAbsolutePath)
      .config("spark.ui.enabled", "false")
      // One shuffle file per map task. Spark's default below 200 reducers writes
      // one file per (map task, reducer) pair; on this benchmark's inputs that
      // is tens of thousands of files per build and file creation dominates.
      .config("spark.shuffle.sort.bypassMergeThreshold", "0")
      .getOrCreate()
  }
}

/** One invocation: set-up, warm-up, timed passes, checks and reports. */
final class Run[O](w: Workload[O], a: Main.Args) {

  /** Input set-ups per run; `setup_s` takes their median. */
  val SetupReps = 3

  def apply(): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = Run.session(s"perfbench-${w.name}", a.out, Run.cores)
    try measure(spark, Run.cores, (System.currentTimeMillis() - jvmStartMs) / 1e3)
    finally spark.stop()
  }

  private def seconds(since: Long): Double = (System.nanoTime() - since) / 1e9

  private def measure(spark: SparkSession, cores: Int, sessionS: Double): Unit = {
    val sc = spark.sparkContext
    val runId = s"${w.name}-${a.seed}-${System.currentTimeMillis()}"
    val listener = new LayerListener(runId)
    val traced = new Tracer(sc, runId, enabled = a.trace)
    val untraced = new Tracer(sc, runId, enabled = false)
    if (a.trace) sc.addSparkListener(listener)

    // Set-up: generate and cache the input, several times for a stable median.
    val spec = Datasets.byName(w.dataset).copy(seed = a.seed)
    val genS = mutable.ArrayBuffer.empty[Double]
    var in: Input = null
    for (_ <- 0 until SetupReps) {
      if (in != null) in.unpersist()
      val t0 = System.nanoTime()
      in = traced.span("graph.generate") {
        val df = Datasets.edges(spark, spec, w.div).cache()
        new Input(spark, w.dataset, df, df.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))))
      }
      genS += seconds(t0)
    }
    val generateSpans = traced.spans
    val (numEdges, hashSum) = Reference.fingerprint(in.local)
    if (a.trace) sc.removeSparkListener(listener)

    var kept = sc.getPersistentRDDs.keySet
    // Frees what a cell left cached, so every cell starts from the same state.
    def cleanup(): Unit = {
      sc.getPersistentRDDs.foreach { case (id, rdd) => if (!kept(id)) rdd.unpersist(blocking = true) }
      if (in.restore()) kept = sc.getPersistentRDDs.keySet
    }

    val cells = w.cells(in)
    val outputs = mutable.ArrayBuffer.empty[(String, O)]
    val failures = mutable.ArrayBuffer.empty[(String, String)]
    var attempted = 0

    def pass(tracer: Tracer, record: Boolean): Double =
      cells.map { c =>
        val t0 = System.nanoTime()
        val run = Try(tracer.span(s"cell:${c.label}")(c.run(tracer)))
        val cellS = seconds(t0)
        if (record) {
          attempted += 1
          run.flatMap(collect => Try(collect())) match {
            case Success(o) => outputs += c.label -> o
            case Failure(e) => failures += c.label -> e.toString
          }
        }
        cleanup()
        cellS
      }.sum

    val t0 = System.nanoTime()
    Try(w.warmup(in).run(untraced)())
    cleanup()
    val warmS = seconds(t0)
    val setupS = sessionS + Stats.median(genS.toSeq) + warmS

    // A traced run traces its first pass, the one an untraced run times, and
    // then times the untraced passes. The traced pass is colder, so the
    // overhead figure is an upper bound that includes that warming.
    val traceResult = if (!a.trace) None else {
      sc.addSparkListener(listener)
      val tracedS = pass(traced, record = true)
      PerfbenchBus.drain(sc)
      sc.removeSparkListener(listener)
      Some(tracedS)
    }

    // Whole passes, at least one; another only if it should end within --seconds.
    val passS = mutable.ArrayBuffer.empty[Double]
    val loopStart = System.nanoTime()
    while (passS.isEmpty || seconds(loopStart) + passS.last <= a.seconds) passS += pass(untraced, record = true)
    val runS = Stats.median(passS.toSeq)

    val layers = traceResult.map { tracedS =>
      val nanoOffset = System.nanoTime() - System.currentTimeMillis() * 1000000L
      val own = traced.spans.drop(generateSpans.size)
      val all = generateSpans ++ own ++ listener.jobSpans((own ++ generateSpans).map(_.id).max + 1, nanoOffset)
      val commCost = if (w ne PageRankWorkload) Map.empty[String, Long] else
        Partitioners.all.map(s => s.name -> Reference.metrics(w.dataset, in.local, s, PageRankWorkload.Parts).commCost).toMap
      writeSpans(runId, all)
      Layers(generateSpans, all.filterNot(generateSpans.contains), listener.of,
        numEdges, cores, commCost, traced.counters("build.cached_mb"), tracedS - runS)
    }

    // Checks, outside every timed region, against a reference made once.
    val check = w.checker(in)
    for ((label, o) <- outputs; why <- Try(check(label, o)).fold(e => Some(e.toString), identity))
      failures += label -> why
    failures.foreach { case (l, why) => System.err.println(s"perfbench: cell ${w.name}/$l failed: $why") }

    val endToEnd = mutable.LinkedHashMap[String, (Double, String)](
      "setup_s" -> (setupS, "s"), "run_s" -> (runS, "s"))
    val metrics = layers.getOrElse(endToEnd)
    val env = mutable.LinkedHashMap[String, Any](
      "master" -> sc.master, "nproc" -> Runtime.getRuntime.availableProcessors,
      "spark_version" -> spark.version, "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20))
    val record = mutable.LinkedHashMap[String, Any](
      "run_id" -> runId, "workload" -> w.name, "seed" -> a.seed, "trace" -> a.trace,
      "input" -> mutable.LinkedHashMap("dataset" -> w.dataset, "scale_divisor" -> w.div,
        "edges" -> numEdges, "hash_sum" -> hashSum),
      "environment" -> env,
      "setup" -> mutable.LinkedHashMap("session_s" -> sessionS, "generate_s" -> genS.toSeq, "warmup_s" -> warmS),
      "pass_s" -> passS.toSeq, "attempted" -> attempted, "failed" -> failures.size,
      "failures" -> failures.map { case (l, why) => s"$l: $why" },
      "end_to_end" -> endToEnd.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
      "per_layer" -> layers.map(_.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }).orNull)
    writeFile(new File(a.out, s"run-${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json"), Json(record))

    println(s"workload ${w.name}: ${w.dataset} analogue at 1/${w.div}, seed ${a.seed}, " +
      s"$numEdges edges, hash sum $hashSum, ${sc.master}, Spark ${spark.version}")
    for ((k, (v, u)) <- endToEnd) println(f"$k%-12s $v%.4f $u")
    println(f"failed_frac  ${if (attempted == 0) 0.0 else failures.size.toDouble / attempted}%.4f " +
      s"(${failures.size} of $attempted cells)")
    layers.foreach(_.foreach { case (k, (v, u)) => println(f"$k%-34s $v%.4f $u") })
    println(Json(mutable.LinkedHashMap(
      "correct" -> failures.isEmpty, "attempted" -> attempted, "failed" -> failures.size,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) })))
  }

  private def writeSpans(runId: String, spans: Seq[Span]): Unit =
    writeFile(new File(a.out, s"spans-${w.name}-seed${a.seed}.json"), Json(mutable.LinkedHashMap(
      "run_id" -> runId,
      "spans" -> spans.sortBy(_.startNs).map(s => mutable.LinkedHashMap(
        "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs)))))

  private def writeFile(f: File, text: String): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try pw.println(text) finally pw.close()
  }
}
