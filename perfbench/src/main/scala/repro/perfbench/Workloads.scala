package repro.perfbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{GraphGen, LocalGraph}

/** One benchmark input: a Table II stand-in built with the generator and
  * size knobs of [[repro.bench.Datasets]], at the scale [[Workloads.Scale]].
  *
  * Each graph is the stand-in at its dataset's own generator seed, plus
  * `erdosRenyi` extra edges drawn from the benchmark seed:
  *  - `hyperlink` is U5: `bipartiteCores` at seed 116, plus extra edges
  *    numbering 1/7 of its own noise edges;
  *  - `social` is YO: `prefAttach` at seed 108, plus extra edges numbering
  *    5% of its edges.
  * Letting the seed redraw the whole graph moved the work per summarize
  * (allocation IQR over 5 seeds) by 13% on `hyperlink` and 11% on `social`,
  * which would hide a regression of that size.
  */
final case class Workload(name: String, gen: (SparkSession, Double, Long) => DataFrame)

object Workloads {
  /** The scale of a timed or traced run, and of `--smoke`. */
  val Scale = 0.3
  val SmokeScale = 0.1

  private def s(x: Long, scale: Double): Long = math.max(1L, (x * scale).toLong)

  val all: Seq[Workload] = Seq(
    Workload("hyperlink",
      (sp, sc, seed) => GraphGen.canonical(GraphGen.bipartiteCores(sp, s(22, sc), 14, 26, s(280, sc), 116)
        .unionByName(GraphGen.erdosRenyi(sp, s(22, sc) * 40, s(40, sc), seed)))),
    Workload("social",
      (sp, sc, seed) => GraphGen.canonical(GraphGen.prefAttach(sp, s(1300, sc), 3, 108)
        .unionByName(GraphGen.erdosRenyi(sp, s(1300, sc), s(200, sc), seed)))),
  )

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name' (expected one of ${all.map(_.name).mkString(", ")})"))
}

/** A started session, the cached input edges and the graph built from them. */
final case class Setup(spark: SparkSession, edges: DataFrame, graph: LocalGraph,
                       sessionSec: Double, generateSec: Double, buildSec: Double) {
  def totalSec: Double = sessionSec + generateSec + buildSec
}

object Setup {

  /** Start a session, generate the seeded stand-in and build its LocalGraph. */
  def once(w: Workload, scale: Double, seed: Long, threads: Int): Setup = {
    val t0 = System.nanoTime()
    val spark = session(threads)
    val t1 = System.nanoTime()
    val edges = w.gen(spark, scale, seed).cache()
    edges.count()
    val t2 = System.nanoTime()
    val g = LocalGraph.fromDF(edges)
    val t3 = System.nanoTime()
    Setup(spark, edges, g, Stats.seconds(t0, t1), Stats.seconds(t1, t2), Stats.seconds(t2, t3))
  }

  /** Set up `reps` times, each in a fresh session, and keep the last one. */
  def repeated(w: Workload, scale: Double, seed: Long, threads: Int, reps: Int): Seq[Setup] = {
    val out = Seq.newBuilder[Setup]
    var last: Setup = null
    var i = 0
    while (i < reps) {
      if (last != null) last.spark.stop()
      last = once(w, scale, seed, threads)
      out += last
      i += 1
    }
    out.result()
  }

  private def session(threads: Int): SparkSession = {
    val local = new File(".bench_build/spark-local").getAbsoluteFile
    local.mkdirs()
    SparkSession.builder()
      .appName("perfbench")
      .master(s"local[$threads]")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.local.dir", local.getPath)
      .config("spark.sql.shuffle.partitions", threads.toString)
      .config("spark.default.parallelism", threads.toString)
      .getOrCreate()
  }
}
