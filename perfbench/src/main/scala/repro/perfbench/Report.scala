package repro.perfbench

import scala.collection.mutable

/** What one benchmark run prints: operation counts and named metrics.
  *
  * Every timed or checked operation goes through [[record]], so a failed
  * output check always shows up in `failed`.
  */
final class Report {
  var attempted = 0L
  var failed = 0L
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]

  /** Count one operation; `ok` is the verdict of its output checks. */
  def record(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (failed <= 20) Console.err.println(s"[perfbench] check failed: $what")
    }
  }

  def metric(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is not finite: $value")
    metrics(name) = (value, unit)
  }

  def json: String = {
    val ms = metrics.iterator.map { case (k, (v, u)) =>
      s""""$k": {"value": ${num(v)}, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }

  private def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }

  /** Nearest-rank percentile, p in (0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100 * s.length).toInt - 1))
  }

  def seconds(t0: Long, t1: Long): Double = (t1 - t0) / 1e9

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, seconds(t0, System.nanoTime()))
  }

  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by every JVM thread, live or ended. */
  def totalAllocated: Long = threads.getTotalThreadAllocatedBytes

  /** Bytes allocated so far by the calling thread. */
  def threadAllocated: Long = threads.getCurrentThreadAllocatedBytes

  /** A fixed pure-CPU loop (50 M splitmix64 steps), kept apart from the
    * program's code: its time tracks the host's speed, not the code's.
    */
  def calibrate(): Double = {
    val t0 = System.nanoTime()
    var x = 0L
    var i = 0
    while (i < 50000000) {
      var z = x + 0x9E3779B97F4A7C15L
      z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
      z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
      x = z ^ (z >>> 31)
      i += 1
    }
    sink = x
    seconds(t0, System.nanoTime())
  }
  @volatile private var sink = 0L
}
