package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** Records every Spark job and task while registered.
  *
  * Jobs are told apart by the physical plan of the SQL execution that ran
  * them: the merge search is the only plan inside `SluggerSpark.summarize`
  * that maps a typed Dataset (`MapElements`, over `GroupState.run`); every
  * other job there is candidate generation, plus one `count` that caches
  * the dense edges.
  */
final class SparkTrace extends SparkListener {
  import SparkTrace.Job

  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val searchPlans = mutable.HashSet.empty[Long]
  var tasks = 0L
  var runMs = 0L
  var cpuNs = 0L
  var serMs = 0L
  var resultBytes = 0L

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case x: SparkListenerSQLExecutionStart if x.physicalPlanDescription.contains("MapElements") =>
      synchronized(searchPlans += x.executionId)
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val exec = Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
    jobs(e.jobId) = Job(e.jobId, e.time, -1L, exec.exists(x => searchPlans(x.toLong)))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      serMs += m.executorDeserializeTime + m.resultSerializationTime
      resultBytes += m.resultSize
    }
  }

  /** Wait until every started job has been seen to end (events are async). */
  def awaitQuiet(timeoutMs: Long = 20000): Boolean = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (synchronized(jobs.valuesIterator.exists(_.endMs < 0)) &&
           System.currentTimeMillis() < deadline) Thread.sleep(20)
    synchronized(!jobs.valuesIterator.exists(_.endMs < 0))
  }

  def allJobs: Seq[Job] = synchronized(jobs.values.toSeq)

  /** Wall seconds of the given jobs, overlaps counted once. */
  def busySec(js: Seq[Job]): Double = {
    var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
    js.sortBy(_.startMs).foreach { j =>
      if (j.startMs > curE) { if (curE > curS) total += curE - curS; curS = j.startMs; curE = j.endMs }
      else curE = math.max(curE, j.endMs)
    }
    if (curE > curS) total += curE - curS
    total / 1000.0
  }
}

object SparkTrace {
  final case class Job(id: Int, startMs: Long, var endMs: Long, search: Boolean)
}
