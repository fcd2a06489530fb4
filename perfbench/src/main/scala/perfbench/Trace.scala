package perfbench

import org.apache.spark.SparkContext
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** One traced interval. `parent` is the enclosing span's id (0 = the run's
  * root); times are `System.nanoTime` readings of the driver.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
  def seconds: Double = durationNs / 1e9
}

object Span {

  /** Length of the union of `intervals` after clipping each to [lo, hi]. */
  def coveredNs(lo: Long, hi: Long, intervals: Seq[(Long, Long)]): Long = {
    val clipped = intervals
      .map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0L
    var curS = 0L
    var curE = Long.MinValue
    for ((s, e) <- clipped) {
      if (s > curE) {
        if (curE > curS) covered += curE - curS
        curS = s
        curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) covered += curE - curS
    covered
  }

  /** A span's duration minus the part of it that its children cover. */
  def selfNs(span: Span, all: Seq[Span]): Long =
    span.durationNs -
      coveredNs(span.startNs, span.endNs,
        all.filter(_.parent == span.id).map(c => (c.startNs, c.endNs)))
}

/** Records spans around the benchmark's calls into each layer. Spans are kept
  * in memory and written out once the run ends. While a span is open its id
  * is the Spark job group, so [[LayerListener]] can attribute every job and
  * task to the span that caused it. With `enabled = false` it only runs the
  * body, so untraced runs pay nothing.
  */
final class Tracer(sc: SparkContext, val runId: String, val enabled: Boolean) {
  private val recorded = ArrayBuffer.empty[Span]
  private var stack: List[Int] = List(0)
  private var nextId = 1

  /** Counts recorded at span boundaries, summed per name. */
  val counters: mutable.Map[String, Double] = mutable.Map.empty[String, Double].withDefaultValue(0.0)

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.head
      stack = id :: stack
      sc.setJobGroup(Tracer.group(runId, id), name)
      val start = System.nanoTime()
      try body
      finally {
        recorded += Span(id, parent, name, start, System.nanoTime())
        stack = stack.tail
        if (stack.head == 0) sc.clearJobGroup()
        else sc.setJobGroup(Tracer.group(runId, stack.head), "")
      }
    }

  /** Closed spans, in order of closing. */
  def spans: Seq[Span] = recorded.toSeq
}

object Tracer {
  def group(runId: String, spanId: Int): String = s"$runId/$spanId"

  /** Span id encoded in a job group, if the group belongs to `runId`. */
  def spanOf(runId: String, group: String): Option[Int] =
    Option(group).filter(_.startsWith(runId + "/")).map(_.drop(runId.length + 1).toInt)
}
