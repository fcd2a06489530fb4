package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import repro.{Oracle, Reference, SparkSpec}
import repro.core.Parsel

/** Metric-layer tests: hand-computed tiny graphs, naive in-memory reference
  * agreement, DuckDB oracle equivalence of the metric panel, and guards on
  * the panel's cost and on its caller's cache.
  */
class MetricsSpec extends SparkSpec {

  private def df(edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  private val square = Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 0L))

  test("SC on a 4-cycle with 2 partitions: every vertex is cut") {
    val m = Metrics.compute("square", df(square), Partitioners.SC, 2)
    assert(m.numEdges == 4)
    assert(m.numVertices == 4)
    assert(m.balance == 1.0)
    assert(m.nonCut == 0)
    assert(m.cut == 4)
    assert(m.commCost == 8)
    assert(m.partStDev == 0.0)
  }

  test("single-partition metrics: nothing is cut") {
    val m = Metrics.compute("square", df(square), Partitioners.RVC, 1)
    assert(m.balance == 1.0)
    assert(m.nonCut == 4)
    assert(m.cut == 0)
    assert(m.commCost == 0)
    assert(m.partStDev == 0.0)
  }

  test("empty partitions count towards balance and stdev") {
    // Two edges from even sources on 4 partitions via SC: partitions 1,3 empty.
    val edges = Seq((0L, 2L), (2L, 0L))
    val m     = Metrics.compute("pair", df(edges), Partitioners.SC, 4)
    assert(m.numEdges == 2)
    assert(m.balance == 2.0) // max 1 vs mean 0.5
    assert(m.partStDev == 0.5)
    assert(m.cut == 2) // both vertices in partitions 0 and 2
    assert(m.commCost == 4)
  }

  test("numParts must be positive") {
    assertThrows[IllegalArgumentException](
      Metrics.compute("x", df(square), Partitioners.RVC, 0))
  }

  test("withPid appends the strategy's assignment") {
    val assigned = Metrics.withPid(df(square), Partitioners.DC, 3).collect()
    assigned.foreach { r =>
      assert(r.getInt(2) == Partitioners.DC.pid(r.getLong(0), r.getLong(1), 3))
    }
  }

  test("an empty edge list gives zero counts, balance 1 and stdev 0 for every strategy") {
    val rows = Metrics.computeAll("empty", df(Nil), 4)
    assert(rows.map(_.partitioner) == Partitioners.all.map(_.name))
    for (m <- rows) {
      assert((m.numEdges, m.numVertices, m.nonCut, m.cut, m.commCost) == (0L, 0L, 0L, 0L, 0L), m.partitioner)
      assert(m.balance == 1.0, m.partitioner)
      assert(m.partStDev == 0.0, m.partitioner)
    }
  }

  // --- agreement with the naive in-memory reference, all six strategies ---

  private val sample = Reference.randomEdges(numVertices = 60, numEdges = 200, seed = 21)

  for (s <- Partitioners.all; n <- Seq(3, 8, 16)) {
    test(s"${s.name} @ $n partitions matches the in-memory reference metrics") {
      val m = Metrics.compute("sample", df(sample), s, n)
      val assigned = sample.map { case (a, b) => (a, b, s.pid(a, b, n)) }
      val (balance, nonCut, cut, commCost, stdev) = Reference.metrics(assigned, n)
      assert(math.abs(m.balance - balance) < 1e-9)
      assert(m.nonCut == nonCut)
      assert(m.cut == cut)
      assert(m.commCost == commCost)
      assert(math.abs(m.partStDev - stdev) < 1e-9)
    }
  }

  // --- DuckDB oracle: one query per partition count over the panel's assignment ---

  /** All six strategies' metrics from the long-form assignment
    * `(strategy, src, dst, pid)`; the max partition size stands in for
    * balance.
    */
  private val panelSql =
    """WITH a AS (
      |  SELECT strategy, CAST(src AS BIGINT) AS src, CAST(dst AS BIGINT) AS dst,
      |         CAST(pid AS INTEGER) AS pid
      |  FROM assigned),
      |sizes AS (
      |  SELECT strategy, count(*) AS n FROM a GROUP BY strategy, pid),
      |replicas AS (
      |  SELECT strategy, v, count(DISTINCT pid) AS r
      |  FROM (SELECT strategy, src AS v, pid FROM a
      |        UNION SELECT strategy, dst AS v, pid FROM a) endpoints
      |  GROUP BY strategy, v)
      |SELECT s.strategy AS partitioner, s.numedges, s.maxpart,
      |       r.numvertices, r.noncut, r.cut, r.commcost
      |FROM (SELECT strategy, sum(n) AS numedges, max(n) AS maxpart
      |      FROM sizes GROUP BY strategy) s
      |JOIN (SELECT strategy, count(*) AS numvertices,
      |             sum(CASE WHEN r = 1 THEN 1 ELSE 0 END) AS noncut,
      |             sum(CASE WHEN r > 1 THEN 1 ELSE 0 END) AS cut,
      |             sum(CASE WHEN r > 1 THEN r ELSE 0 END) AS commcost
      |      FROM replicas GROUP BY strategy) r
      |ON s.strategy = r.strategy""".stripMargin

  private val oracleParts = Seq(8, 16)

  private type Panel = Map[String, Map[String, String]]

  /** Per partition count: strategy → column → value, from `computeAll` and
    * from DuckDB over `withPid` of every strategy.
    */
  private lazy val oraclePanels: Map[Int, (Panel, Panel)] =
    oracleParts.map { n =>
      val sparkSide = Metrics.computeAll("sample", df(sample), n).map { m =>
        val maxPart = math.round(m.balance * m.numEdges / n)
        m.partitioner -> Map("numedges" -> m.numEdges, "maxpart" -> maxPart,
          "numvertices" -> m.numVertices, "noncut" -> m.nonCut, "cut" -> m.cut,
          "commcost" -> m.commCost).map { case (c, v) => c -> v.toString }
      }.toMap
      val longForm = Partitioners.all
        .map(s => Metrics.withPid(df(sample), s, n).withColumn("strategy", lit(s.name)))
        .reduce(_ union _)
      val (cols, rows) = Oracle.query(panelSql, "assigned" -> longForm)
      val duckSide = rows.map { r =>
        val byCol = cols.map(_.toLowerCase).zip(r.toSeq.map(String.valueOf)).toMap
        byCol("partitioner") -> byCol
      }.toMap
      n -> (sparkSide, duckSide)
    }.toMap

  private def assertAgreesWithDuckDB(s: Strategy, columns: Seq[String]): Unit =
    for (n <- oracleParts) {
      val (sparkSide, duckSide) = oraclePanels(n)
      for (c <- columns)
        assert(sparkSide(s.name)(c) == duckSide(s.name)(c), s"${s.name} @ $n partitions: $c")
    }

  for (s <- Partitioners.all) {
    test(s"${s.name}: replica metrics agree with DuckDB over the same assignment") {
      assertAgreesWithDuckDB(s, Seq("numvertices", "noncut", "cut", "commcost"))
    }

    test(s"${s.name}: per-partition sizes agree with DuckDB over the same assignment") {
      assertAgreesWithDuckDB(s, Seq("numedges", "maxpart"))
    }
  }

  // --- structural invariants over a generated graph ---

  private lazy val rmatEdges =
    repro.graph.SynthGraphs.rmat(spark, scale = 9, numEdges = 1500, seed = 33).cache()

  for (s <- Partitioners.all) {
    test(s"${s.name}: invariants hold on an RMAT graph @ 16 partitions") {
      val m = Metrics.compute("rmat", rmatEdges, s, 16)
      assert(m.nonCut + m.cut == m.numVertices, "replica breakdown covers all vertices")
      assert(m.cut == 0 || m.commCost >= 2 * m.cut, "each cut vertex has >= 2 replicas")
      assert(m.commCost <= 16L * m.cut, "replicas bounded by partition count")
      assert(m.balance >= 1.0 - 1e-9, "max is at least the mean")
      assert(m.partStDev >= 0.0)
      assert(m.numEdges == rmatEdges.count())
    }
  }

  test("CRVC never replicates more than RVC on a symmetric graph") {
    val sym = repro.graph.SynthGraphs.symmetrize(rmatEdges).cache()
    val rvc  = Metrics.compute("sym", sym, Partitioners.RVC, 16)
    val crvc = Metrics.compute("sym", sym, Partitioners.CRVC, 16)
    assert(crvc.commCost < rvc.commCost,
      s"CRVC (${crvc.commCost}) should collocate reciprocal edges vs RVC (${rvc.commCost})")
    sym.unpersist()
  }

  test("computeAll returns one row per strategy with a constant edge count") {
    val rows = Metrics.computeAll("rmat", rmatEdges, 8)
    assert(rows.map(_.partitioner) == Partitioners.all.map(_.name))
    assert(rows.map(_.numEdges).distinct.size == 1)
  }

  test("tableRow formats all five metric columns") {
    val row = Metrics.compute("square", df(square), Partitioners.SC, 2).tableRow
    for (frag <- Seq("square", "SC", "1.00", "8")) assert(row.contains(frag))
  }

  // --- the panel's cost and its caller's cache ---

  test("computeAll runs at most 2 Spark jobs whatever the number of strategies") {
    val edges = df(sample)
    for (strategies <- Seq(Partitioners.all.take(1), Partitioners.all)) {
      val jobs = sparkWork(Metrics.computeAll("sample", edges, 8, strategies)).jobs
      assert(jobs <= 2, s"${strategies.size} strategies ran $jobs jobs")
    }
  }

  test("a caller's cached DataFrame stays cached through computeAll and Parsel.select") {
    val edges = df(sample).cache()
    edges.count()
    Metrics.computeAll("sample", edges, 8)
    assert(edges.storageLevel.useMemory, "computeAll dropped the cache")
    Parsel.select("sample", edges, Parsel.EdgeBound, 8)
    assert(edges.storageLevel.useMemory, "Parsel.select dropped the cache")
    edges.unpersist()
  }
}
