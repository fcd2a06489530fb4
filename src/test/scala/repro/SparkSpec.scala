package repro

import java.util.Properties
import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Spark jobs and tasks that `body` ran. `body` runs in its own job group;
    * a marker job started after it ends the count, since the listener bus
    * delivers events in order. Tasks are those of the stages actually
    * submitted, so skipped stages (shuffle output or cache reused) count 0.
    */
  protected def sparkWork(body: => Unit): SparkSpec.Work = {
    val sc     = spark.sparkContext
    val group  = s"spark-work-${System.nanoTime}"
    val marker = s"$group-marker"
    val jobs   = new ConcurrentLinkedQueue[String]()
    val stages = new ConcurrentLinkedQueue[(String, Int)]()
    def groupOf(p: Properties): Option[String] =
      Option(p).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groupOf(e.properties).foreach(jobs.add)
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        groupOf(e.properties).foreach(g => stages.add((g, e.stageInfo.numTasks)))
    }
    sc.addSparkListener(listener)
    try {
      def inGroup(id: String)(f: => Unit): Unit = {
        sc.setJobGroup(id, id)
        try f finally sc.clearJobGroup()
      }
      inGroup(group)(body)
      inGroup(marker)(sc.parallelize(Seq(1), 1).count())
      val deadline = System.nanoTime + 60L * 1000 * 1000 * 1000
      while (!jobs.contains(marker) && System.nanoTime < deadline) Thread.sleep(10)
      assert(jobs.contains(marker), "listener never saw the marker job")
      SparkSpec.Work(
        jobs = jobs.asScala.count(_ == group),
        tasks = stages.asScala.collect { case (`group`, n) => n }.sum)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  /** What [[SparkSpec.sparkWork]] counted. */
  final case class Work(jobs: Int, tasks: Int)

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
