package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.Datasets
import repro.partition.{Metrics, PartitionMetrics, Partitioners}

class ReferenceSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark = SparkSession.builder()
    .master("local[2]")
    .appName("perfbench-test")
    .config("spark.sql.shuffle.partitions", "4")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  // 1D sends an edge to |src · MixingPrime| mod 2; the prime is odd, so odd
  // sources land in partition 1 and even ones in partition 0.
  private val tiny = Array((1L, 2L), (2L, 3L), (3L, 1L), (1L, 4L))

  test("metric reference matches a hand computation") {
    // Partition 1 holds (1,2), (3,1), (1,4); partition 0 holds (2,3).
    // Vertices 2 and 3 have edges in both partitions; 1 and 4 in one.
    assert(Reference.metrics("tiny", tiny, Partitioners.OneD, 2) ==
      PartitionMetrics("tiny", "1D", 2, numEdges = 4, numVertices = 4, balance = 1.5,
        nonCut = 2, cut = 2, commCost = 4, partStDev = 1.0))
  }

  test("metric reference equals Metrics.compute for every strategy") {
    import spark.implicits._
    val df = tiny.toSeq.toDF("src", "dst")
    for (s <- Partitioners.all; n <- Seq(2, 3, 4))
      assert(Reference.metricsMismatch(Metrics.compute("tiny", df, s, n), Reference.metrics("tiny", tiny, s, n)).isEmpty,
        s"${s.name} at $n")
  }

  test("a wrong count or a drifted balance is reported") {
    val want = Reference.metrics("tiny", tiny, Partitioners.OneD, 2)
    assert(Reference.metricsMismatch(want.copy(commCost = 5), want).nonEmpty)
    assert(Reference.metricsMismatch(want.copy(balance = 1.5 + 1e-6), want).nonEmpty)
    assert(Reference.metricsMismatch(want.copy(balance = 1.5 + 1e-12), want).isEmpty)
  }

  test("fingerprint ignores edge order and sees any changed edge") {
    assert(Reference.fingerprint(tiny) == Reference.fingerprint(tiny.reverse))
    assert(Reference.fingerprint(tiny)._1 == 4)
    assert(Reference.fingerprint(tiny) != Reference.fingerprint(tiny.updated(0, (2L, 1L))))
  }

  test("fingerprint of a generated dataset is fixed by its seed") {
    def fp(seed: Long) = {
      val df = Datasets.edges(spark, Datasets.byName("Pocek").copy(seed = seed), 20000)
      Reference.fingerprint(df.collect().map(r => (r.getLong(0), r.getLong(1))))
    }
    assert(fp(5) == fp(5))
    assert(fp(5) != fp(6))
  }

  test("tracer nests spans and records nothing when disabled") {
    val sc = spark.sparkContext
    val on = new Tracer(sc, "t", enabled = true)
    on.span("cell")(on.span("build")(sc.parallelize(1 to 4).count()))
    assert(on.spans.map(s => (s.name, s.parent)) == Seq(("build", 1), ("cell", 0)))
    assert(sc.getLocalProperty("spark.jobGroup.id") == null)
    val off = new Tracer(sc, "t", enabled = false)
    assert(off.span("cell")(42) == 42 && off.spans.isEmpty)
  }
}
