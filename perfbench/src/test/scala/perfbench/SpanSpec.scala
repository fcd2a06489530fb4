package perfbench

import org.scalatest.funsuite.AnyFunSuite

class SpanSpec extends AnyFunSuite {

  test("self time subtracts the union of child intervals, clipped to the span") {
    val parent = Span(1, 0, "select", 0, 100)
    val children = Seq(
      Span(2, 1, "spark.job", 10, 30),
      Span(3, 1, "spark.job", 20, 50), // overlaps the first: [10, 50] counts once
      Span(4, 1, "spark.job", 60, 70),
      Span(5, 1, "spark.job", 90, 120)) // runs past the parent: only [90, 100] counts
    assert(Span.coveredNs(0, 100, children.map(c => (c.startNs, c.endNs))) == 60)
    assert(Span.selfNs(parent, parent +: children) == 40)
  }

  test("self time ignores spans that are not children") {
    val parent = Span(1, 0, "build", 0, 50)
    val grandchild = Span(3, 2, "spark.job", 0, 50)
    val sibling = Span(4, 0, "pagerank", 10, 40)
    assert(Span.selfNs(parent, Seq(parent, grandchild, sibling)) == 50)
  }

  test("nested and touching children are not double counted") {
    val intervals = Seq((0L, 10L), (2L, 5L), (10L, 20L), (30L, 30L))
    assert(Span.coveredNs(0, 100, intervals) == 20)
    assert(Span.coveredNs(5, 15, intervals) == 10)
    assert(Span.coveredNs(0, 100, Nil) == 0)
  }

  test("job groups map back to span ids of the same run only") {
    assert(Tracer.spanOf("run-1", Tracer.group("run-1", 7)).contains(7))
    assert(Tracer.spanOf("run-1", Tracer.group("run-2", 7)).isEmpty)
    assert(Tracer.spanOf("run-1", null).isEmpty)
  }

  test("median of odd and even samples") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }

  test("arguments are validated before any work") {
    assert(Main.parse(Array("--workload", "pagerank", "--seed", "3", "--seconds", "10",
      "--trace", "1", "--out", "o")).map(a => (a.workload, a.seed, a.seconds, a.trace)) ==
      Right((PageRankWorkload, 3L, 10, true)))
    assert(Main.parse(Array("--workload", "sssp", "--seed", "3", "--seconds", "10", "--trace", "0", "--out", "o")).isLeft)
    assert(Main.parse(Array("--workload", "parsel", "--seed", "x", "--seconds", "10", "--trace", "0", "--out", "o")).isLeft)
    assert(Main.parse(Array("--workload", "parsel", "--seed", "1", "--seconds", "0", "--trace", "0", "--out", "o")).isLeft)
    assert(Main.parse(Array("--workload", "parsel", "--seed", "1", "--seconds", "5", "--trace", "2", "--out", "o")).isLeft)
    assert(Main.parse(Array("--workload", "parsel", "--seed")).isLeft)
  }
}
