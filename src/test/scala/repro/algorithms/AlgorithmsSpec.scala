package repro.algorithms

import org.apache.spark.graphx.{Edge, Graph, lib => gxlib}
import org.apache.spark.sql.DataFrame
import repro.{Reference, SparkSpec}
import repro.partition.Partitioners

/** Correctness of the four from-scratch algorithms against (a) naive
  * in-memory references and (b) the GraphX library baselines, plus the
  * study's load-bearing property: results are invariant under the
  * partitioning strategy.
  */
class AlgorithmsSpec extends SparkSpec {

  private def df(edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  private def graphOf(edges: Seq[(Long, Long)], parts: Int = 4): Graph[Int, Int] =
    GraphBuilder.partitioned(df(edges), Partitioners.RVC, parts)

  private val chain    = Seq((0L, 1L), (1L, 2L), (2L, 3L))
  private val sample   = Reference.randomEdges(numVertices = 80, numEdges = 400, seed = 51)
  private lazy val sampleGraph = graphOf(sample).cache()

  // --- GraphBuilder ---

  test("GraphBuilder: edge partitions follow the strategy") {
    for (s <- Partitioners.all) {
      val g = GraphBuilder.partitioned(df(sample), s, 8)
      val placed = g.edges
        .mapPartitionsWithIndex((pid, iter) => iter.map(e => (pid, e.srcId, e.dstId)))
        .collect()
      placed.foreach { case (pid, src, dst) =>
        assert(pid == s.pid(src, dst, 8), s"${s.name}: edge ($src,$dst) on wrong partition")
      }
    }
  }

  test("GraphBuilder: preserves the edge multiset") {
    val g = GraphBuilder.partitioned(df(sample), Partitioners.TwoD, 8)
    val back = g.edges.map(e => (e.srcId, e.dstId)).collect().toSet
    assert(back == sample.toSet)
  }

  /** Each edge partition's (src, dst) pairs, in stored order. */
  private def layout(g: Graph[Int, Int]): Seq[Seq[(Long, Long)]] =
    g.edges.map(e => (e.srcId, e.dstId)).glom().collect().map(_.toSeq).toSeq

  test("GraphBuilder: per-partition layout equals Graph.partitionBy") {
    val input   = df(sample)
    val gxEdges = input.rdd.map(r => Edge(r.getLong(0), r.getLong(1), 1))
    // 6 is not a perfect square, so 2D takes its non-square branch.
    for (s <- Partitioners.all; n <- Seq(8, 6)) {
      val ours = layout(GraphBuilder.partitioned(input, s, n))
      val gx   = layout(Graph.fromEdges(gxEdges, 1).partitionBy(s, n))
      assert(ours == gx, s"${s.name} at $n partitions")
    }
  }

  test("GraphBuilder: vertices live in numParts partitions, whatever the input's") {
    def pageRankTasks(inputParts: Int): Int = {
      val g = GraphBuilder.partitioned(df(sample).repartition(inputParts), Partitioners.TwoD, 8).cache()
      assert(g.vertices.getNumPartitions == 8, s"vertices from a $inputParts-partition input")
      assert(g.edges.getNumPartitions == 8, s"edges from a $inputParts-partition input")
      g.vertices.count()
      g.edges.count()
      val tasks = sparkWork(PageRankAlg.run(g, 2).vertices.count()).tasks
      g.unpersist(blocking = true)
      tasks
    }
    assert(pageRankTasks(4) == pageRankTasks(64))
  }

  test("GraphBuilder: unpersisting the graph frees everything the build cached") {
    val sc     = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val g      = GraphBuilder.partitioned(df(sample), Partitioners.RVC, 8).cache()
    g.vertices.count()
    g.edges.count()
    g.unpersist(blocking = true)
    val left = sc.getPersistentRDDs.collect { case (id, rdd) if !before(id) => rdd.name }
    assert(left.isEmpty, s"still cached: ${left.mkString(", ")}")
  }

  // --- PageRank ---

  test("PageRank matches the in-memory reference on a chain") {
    val ranks = PageRankAlg.run(graphOf(chain), numIter = 10).vertices.collectAsMap()
    val ref   = Reference.pageRank(chain, iters = 10)
    for ((v, r) <- ref) assert(math.abs(ranks(v) - r) < 1e-10, s"vertex $v")
  }

  test("PageRank matches the in-memory reference on a random graph") {
    val ranks = PageRankAlg.run(sampleGraph, numIter = 10).vertices.collectAsMap()
    val ref   = Reference.pageRank(sample, iters = 10)
    for ((v, r) <- ref) assert(math.abs(ranks(v) - r) < 1e-8, s"vertex $v")
  }

  test("PageRank matches the GraphX library baseline") {
    val ours     = PageRankAlg.run(sampleGraph, numIter = 10).vertices.collectAsMap()
    val baseline = gxlib.PageRank.run(sampleGraph, numIter = 10).vertices.collectAsMap()
    for ((v, r) <- baseline) assert(math.abs(ours(v) - r) < 1e-8, s"vertex $v")
  }

  test("PageRank: sink vertices settle at resetProb") {
    val ranks = PageRankAlg.run(graphOf(Seq((1L, 0L), (2L, 0L))), numIter = 5).vertices.collectAsMap()
    assert(math.abs(ranks(1L) - 0.15) < 1e-12)
    assert(math.abs(ranks(2L) - 0.15) < 1e-12)
  }

  test("PageRank rejects bad arguments") {
    assertThrows[IllegalArgumentException](PageRankAlg.run(sampleGraph, 0))
    assertThrows[IllegalArgumentException](PageRankAlg.run(sampleGraph, 5, resetProb = 1.5))
  }

  // --- Connected Components ---

  test("CC labels match the union-find reference") {
    val ours = ConnectedComponentsAlg.run(sampleGraph).vertices.collectAsMap()
    val ref  = Reference.components(sample)
    for ((v, label) <- ref) assert(ours(v) == label, s"vertex $v")
  }

  test("CC matches the GraphX library baseline") {
    val ours     = ConnectedComponentsAlg.run(sampleGraph).vertices.collectAsMap()
    val baseline = gxlib.ConnectedComponents.run(sampleGraph).vertices.collectAsMap()
    assert(ours == baseline)
  }

  test("CC on disjoint fragments finds every component") {
    val fragments = Seq((0L, 1L), (2L, 3L), (4L, 5L), (6L, 7L))
    assert(ConnectedComponentsAlg.count(graphOf(fragments)) == 4)
  }

  test("CC treats direction as irrelevant (weak components)") {
    val directed = Seq((3L, 2L), (2L, 1L), (5L, 4L))
    val labels   = ConnectedComponentsAlg.run(graphOf(directed)).vertices.collectAsMap()
    assert(labels(3L) == 1L && labels(2L) == 1L && labels(1L) == 1L)
    assert(labels(5L) == 4L && labels(4L) == 4L)
  }

  // --- Triangle Count ---

  test("TriangleCount totals match brute force on random graphs") {
    for (seed <- 61 to 65) {
      val edges = Reference.randomEdges(numVertices = 40, numEdges = 250, seed = seed)
      assert(TriangleCountAlg.total(graphOf(edges)) == Reference.triangles(edges),
        s"seed $seed")
    }
  }

  test("TriangleCount per-vertex counts match brute force") {
    val edges = Reference.randomEdges(numVertices = 30, numEdges = 160, seed = 66)
    val ours  = TriangleCountAlg.run(graphOf(edges)).vertices.collectAsMap()
    val ref   = Reference.trianglesPerVertex(edges)
    for ((v, c) <- ref) assert(ours(v) == c, s"vertex $v")
  }

  test("TriangleCount matches the GraphX library baseline") {
    val ours     = TriangleCountAlg.run(sampleGraph).vertices.collectAsMap()
    val baseline = gxlib.TriangleCount.run(sampleGraph).vertices.collectAsMap()
    assert(ours == baseline)
  }

  test("TriangleCount: a triangle with reciprocated edges counts once") {
    val tri = Seq((0L, 1L), (1L, 0L), (1L, 2L), (2L, 1L), (2L, 0L), (0L, 2L))
    assert(TriangleCountAlg.total(graphOf(tri)) == 1)
  }

  test("TriangleCount: triangle-free graphs count zero") {
    assert(TriangleCountAlg.total(graphOf(chain)) == 0)
  }

  // --- SSSP ---

  test("SSSP matches the BFS reference") {
    val landmark = sample.head._2
    val ours = ShortestPathsAlg.run(sampleGraph, Seq(landmark)).vertices.collectAsMap()
    val ref  = Reference.distancesTo(sample, landmark)
    for ((v, d) <- ref) assert(ours(v).get(landmark) == Some(d), s"vertex $v")
    // Unreachable vertices carry no entry for the landmark.
    for ((v, m) <- ours if !ref.contains(v)) assert(!m.contains(landmark), s"vertex $v")
  }

  test("SSSP matches the GraphX library baseline") {
    val landmarks = Seq(sample.head._1, sample.last._2)
    val ours     = ShortestPathsAlg.run(sampleGraph, landmarks).vertices.collectAsMap()
    val baseline = gxlib.ShortestPaths.run(sampleGraph, landmarks).vertices.collectAsMap()
    assert(ours == baseline)
  }

  test("SSSP on a chain: distances follow edge direction") {
    val d = ShortestPathsAlg.run(graphOf(chain), Seq(3L)).vertices.collectAsMap()
    assert(d(0L) == Map(3L -> 3) && d(1L) == Map(3L -> 2) &&
      d(2L) == Map(3L -> 1) && d(3L) == Map(3L -> 0))
  }

  test("SSSP requires at least one landmark") {
    assertThrows[IllegalArgumentException](
      ShortestPathsAlg.run(sampleGraph, Seq.empty))
  }

  // --- the study's premise: partitioning never changes results ---

  private lazy val invarianceEdges =
    repro.graph.SynthGraphs.rmat(spark, scale = 9, numEdges = 2000, seed = 71).cache()

  private lazy val rvcResults = {
    val g = GraphBuilder.partitioned(invarianceEdges, Partitioners.RVC, 8).cache()
    val pr   = PageRankAlg.run(g, 5).vertices.collectAsMap()
    val cc   = ConnectedComponentsAlg.run(g).vertices.collectAsMap()
    val tr   = TriangleCountAlg.run(g).vertices.collectAsMap()
    val sssp = ShortestPathsAlg.run(g, Seq(0L)).vertices.collectAsMap()
    g.unpersist(blocking = false)
    (pr, cc, tr, sssp)
  }

  for (s <- Partitioners.all.filterNot(_ == Partitioners.RVC)) {
    test(s"partitioner invariance: all four algorithms agree under ${s.name}") {
      val g = GraphBuilder.partitioned(invarianceEdges, s, 8).cache()
      val (refPr, refCc, refTr, refSssp) = rvcResults
      val pr = PageRankAlg.run(g, 5).vertices.collectAsMap()
      for ((v, r) <- refPr) assert(math.abs(pr(v) - r) < 1e-9, s"PR vertex $v")
      assert(ConnectedComponentsAlg.run(g).vertices.collectAsMap() == refCc, "CC")
      assert(TriangleCountAlg.run(g).vertices.collectAsMap() == refTr, "TR")
      assert(ShortestPathsAlg.run(g, Seq(0L)).vertices.collectAsMap() == refSssp, "SSSP")
      g.unpersist(blocking = false)
    }
  }
}
