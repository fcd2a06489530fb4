package perfbench

import org.apache.spark.Success
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Task-metric sums over a set of Spark jobs. Times are in milliseconds. */
final class TaskSums {
  var jobs = 0L
  var tasks = 0L
  var failedTasks = 0L
  var runMs = 0L
  var schedDelayMs = 0L
  var fetchWaitMs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  var shuffleWriteRecords = 0L
  var spillBytes = 0L
  /** Task durations per stage, for the skew figure. */
  val stageTaskMs = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]

  /** Largest, over stages with at least two tasks, of slowest / median task time. */
  def skew: Double =
    stageTaskMs.values.filter(_.size >= 2).map { ts =>
      val sorted = ts.sorted
      sorted.last.toDouble / math.max(1L, sorted(sorted.size / 2))
    }.maxOption.getOrElse(1.0)

  def add(o: TaskSums): TaskSums = {
    jobs += o.jobs; tasks += o.tasks; failedTasks += o.failedTasks
    runMs += o.runMs; schedDelayMs += o.schedDelayMs; fetchWaitMs += o.fetchWaitMs
    gcMs += o.gcMs; shuffleWriteBytes += o.shuffleWriteBytes
    shuffleWriteRecords += o.shuffleWriteRecords; spillBytes += o.spillBytes
    o.stageTaskMs.foreach { case (k, v) => stageTaskMs.getOrElseUpdate(k, mutable.ArrayBuffer.empty) ++= v }
    this
  }
}

object TaskSums {
  def total(xs: Iterable[TaskSums]): TaskSums = xs.foldLeft(new TaskSums)(_ add _)
}

/** Sums `TaskMetrics` per span: the [[Tracer]] puts a span's id in the job
  * group of every job the span starts, and this listener maps each job's
  * stages, and so each task, back to that span. It also keeps each job's
  * interval, which becomes a child span of its group.
  */
final class LayerListener(runId: String) extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val jobSpan = mutable.Map.empty[Int, (Int, Long)]
  private val sums = mutable.Map.empty[Int, TaskSums]
  private val jobIntervals = mutable.ArrayBuffer.empty[(Int, Long, Long)]

  private def sumsOf(span: Int): TaskSums = sums.getOrElseUpdate(span, new TaskSums)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    Tracer.spanOf(runId, group).foreach { span =>
      jobSpan(e.jobId) = (span, e.time)
      e.stageIds.foreach(stageSpan(_) = span)
      sumsOf(span).jobs += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobSpan.remove(e.jobId).foreach { case (span, start) => jobIntervals += ((span, start, e.time)) }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageSpan.get(e.stageId).foreach { span =>
      val s = sumsOf(span)
      val info = e.taskInfo
      s.tasks += 1
      if (e.reason != Success) s.failedTasks += 1
      s.stageTaskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += info.duration
      val m = e.taskMetrics
      if (m != null) {
        s.runMs += m.executorRunTime
        s.schedDelayMs += math.max(0L, info.duration - m.executorRunTime -
          m.executorDeserializeTime - m.resultSerializationTime - info.gettingResultTime)
        s.fetchWaitMs += m.shuffleReadMetrics.fetchWaitTime
        s.gcMs += m.jvmGCTime
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        s.shuffleWriteRecords += m.shuffleWriteMetrics.recordsWritten
        s.spillBytes += m.diskBytesSpilled
      }
    }
  }

  /** Sums for one span (empty when it ran no job). */
  def of(span: Int): TaskSums = synchronized(sums.getOrElse(span, new TaskSums))

  /** Every finished job as a child span of the span that started it, in the
    * tracer's clock (`nanoOffset` = nanoTime − epoch nanos).
    */
  def jobSpans(firstId: Int, nanoOffset: Long): Seq[Span] = synchronized {
    jobIntervals.toSeq.zipWithIndex.map { case ((parent, s, e), i) =>
      Span(firstId + i, parent, "spark.job", s * 1000000L + nanoOffset, e * 1000000L + nanoOffset)
    }
  }
}
