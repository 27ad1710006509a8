package repro.perfbench

import repro.baselines.Sweg
import repro.core.encode.{MinCover, Panel}
import repro.core.local.Slugger
import repro.core.model.{HierSummary, SummaryAlgos}
import repro.core.spark.SluggerSpark
import scala.collection.mutable
import scala.util.Random

/** Summarize-and-query benchmark.
  *
  * `--trace 0` measures the end-to-end metrics: set-up, cold and warm
  * summarize, then neighbour queries, decompression and PageRank on the
  * summary, in whole rounds until `--seconds` have passed. `--trace 1`
  * drives the same algorithm layer by layer and reports per-layer metrics.
  * The last stdout line is the JSON result.
  */
object Main {
  val Cfg: Slugger.Config = Slugger.Config()
  /** Measured set-ups; one more comes first, to pay class loading and JIT. */
  val SetupReps = 5
  val QueryReps = 25
  val QueryBlocks = 6

  private val Flags = Set("workload", "seed", "seconds", "trace", "threads")

  /** `--flag value` pairs, plus `--smoke`. run.py passes every value. */
  def parse(argv: List[String]): Map[String, String] = argv match {
    case Nil                                             => Map.empty
    case "--smoke" :: t                                  => parse(t) + ("smoke" -> "1")
    case k :: v :: t if Flags(k.stripPrefix("--"))       => parse(t) + (k.stripPrefix("--") -> v)
    case other :: _ => throw new IllegalArgumentException(s"unknown or incomplete argument $other")
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toList)
    def need(k: String): String = a.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val seed = need("seed").toLong
    val threads = need("threads").toInt
    require(threads >= 1, "--threads must be at least 1")
    if (a.contains("smoke")) {
      // Every workload, both modes, tiny inputs: one line per run.
      Workloads.all.foreach { w =>
        Seq(false, true).foreach { tr =>
          val r = run(w, Workloads.SmokeScale, seed, 1.0, tr, threads)
          println(s"SMOKE ${w.name} ${if (tr) 1 else 0} ${r.json}")
        }
      }
      println("""{"smoke": "done"}""")
    } else {
      val w = Workloads.byName(need("workload"))
      println(run(w, Workloads.Scale, seed, need("seconds").toDouble, need("trace") == "1", threads).json)
    }
    sys.exit(0)
  }

  def run(w: Workload, scale: Double, seed: Long, seconds: Double, trace: Boolean,
          threads: Int): Report = {
    MinCover.memoClear()
    val calib = mutable.ArrayBuffer.empty[Double]
    if (trace) (1 to 3).foreach(_ => calib += Stats.calibrate())
    val rep = new Report
    val all = Setup.repeated(w, scale, seed, threads, 1 + SetupReps)
    all.foreach(s => rep.record(s.graph.m > 0, "set-up built an empty graph"))
    val setups = all.tail
    val s = setups.last
    try {
      if (trace) traced(w, s, setups, seed, seconds, rep)
      else timed(w, s, setups, seed, seconds, rep)
    } finally s.spark.stop()
    if (trace) {
      (1 to 3).foreach(_ => calib += Stats.calibrate())
      rep.metric("host.calib_s", Stats.median(calib.toSeq), "s")
    }
    rep
  }

  /** A seeded order in which to query every subnode once. */
  private def queryOrder(n: Int, seed: Long): Array[Int] = {
    val rng = new Random(seed)
    rng.shuffle((0 until n).toVector).toArray
  }

  // ------------------------------------------------------------- end to end

  private def timed(w: Workload, s: Setup, setups: Seq[Setup], seed: Long, seconds: Double,
                    rep: Report): Unit = {
    val g = s.graph
    val chk = new Checks(g)
    var cost = -1L
    def summarizeChecked(): (Slugger.Result, Double) = {
      val (r, t) = Stats.timed(Slugger.summarize(g, Cfg))
      rep.record(chk.summaryOk(r, cost), s"${w.name}: summary check, cost ${r.summary.cost} vs $cost")
      if (cost < 0) cost = r.summary.cost
      (r, t)
    }

    val order = queryOrder(g.n, seed)
    val cold, warm, alloc, qps, dec, pr = mutable.ArrayBuffer.empty[Double]

    // Queries are fast, so each sample is the mean over QueryReps calls.
    def queryBlock(sum: HierSummary): Unit = {
      val fresh = Array.fill(QueryReps)(sum.copy()) // each pass rebuilds the lazy index
      val out = Array.ofDim[Set[Int]](QueryReps, order.length)
      val t0 = System.nanoTime()
      var p = 0
      while (p < QueryReps) {
        var i = 0
        while (i < order.length) { out(p)(i) = fresh(p).neighbors(order(i)); i += 1 }
        p += 1
      }
      qps += QueryReps.toLong * order.length / Stats.seconds(t0, System.nanoTime())
      out.foreach(o => o.indices.foreach { i =>
        rep.record(chk.neighborsOk(order(i), o(i)), s"${w.name}: neighbors(${order(i)})")
      })
      val (es, td) = Stats.timed((1 to QueryReps).map(_ => sum.decompress))
      dec += td / QueryReps
      es.foreach(e => rep.record(chk.decompressOk(e), s"${w.name}: decompress differs from the input"))
      val (ranks, tp) = Stats.timed((1 to QueryReps).map(_ => SummaryAlgos.pageRank(sum, 0.85, 20)))
      pr += tp / QueryReps
      ranks.foreach(x => rep.record(chk.pageRankOk(x), s"${w.name}: pageRank differs from the reference"))
    }

    // Warm-up: JIT for both uses, and the memo fill.
    queryBlock(summarizeChecked()._1.summary)
    qps.clear(); dec.clear(); pr.clear()
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    do {
      MinCover.memoClear()
      cold += summarizeChecked()._2
      val a0 = Stats.totalAllocated
      val (r, t) = summarizeChecked()
      alloc += (Stats.totalAllocated - a0) / 1e6
      warm += t

      System.gc() // leave summarize's garbage out of the query timings
      var b = 0
      while (b < QueryBlocks) { queryBlock(r.summary); b += 1 }
    } while (System.nanoTime() < deadline)

    Seq("setup_s" -> setups.map(_.totalSec), "summarize_s" -> warm.toSeq, "summarize_cold_s" -> cold.toSeq,
        "neighbors_qps" -> qps.toSeq, "decompress_s" -> dec.toSeq, "pagerank_s" -> pr.toSeq).foreach {
      case (k, xs) => Console.err.println(s"[perfbench] $k samples: ${xs.map(x => f"$x%.4g").mkString(" ")}")
    }
    rep.metric("setup_s", Stats.median(setups.map(_.totalSec)), "s")
    rep.metric("summarize_s", Stats.median(warm.toSeq), "s")
    rep.metric("summarize_cold_s", Stats.median(cold.toSeq), "s")
    rep.metric("summarize_alloc_mb", Stats.median(alloc.toSeq), "MB")
    rep.metric("rel_size", cost.toDouble / g.m, "ratio")
    rep.metric("neighbors_qps", Stats.median(qps.toSeq), "1/s")
    rep.metric("decompress_s", Stats.median(dec.toSeq), "s")
    rep.metric("pagerank_s", Stats.median(pr.toSeq), "s")
  }

  // -------------------------------------------------------------- per layer

  private def traced(w: Workload, s: Setup, setups: Seq[Setup], seed: Long, seconds: Double,
                     rep: Report): Unit = {
    val g = s.graph
    val chk = new Checks(g)
    rep.metric("graph.generate_s", Stats.median(setups.map(_.generateSec)), "s")
    rep.metric("graph.build_s", Stats.median(setups.map(_.buildSec)), "s")
    rep.metric("graph.nodes", g.n, "count")
    rep.metric("graph.edges", g.m.toDouble, "count")

    // Untraced and traced summarize alternate, so host drift hits both alike.
    val (r0, _) = Stats.timed(Slugger.summarize(g, Cfg))
    val cost = r0.summary.cost
    rep.record(chk.summaryOk(r0, -1), s"${w.name}: untraced summary check")
    val untraced, tracedT = mutable.ArrayBuffer.empty[Double]
    val traces = mutable.ArrayBuffer.empty[LayerTrace]
    def tracedRound(): Unit = {
      val tr = new LayerTrace
      val (rt, tt) = Stats.timed(Traced.summarize(g, Cfg, tr))
      rep.record(chk.summaryOk(rt, cost) && traces.headOption.forall(_.counts == tr.counts),
        s"${w.name}: traced cost ${rt.summary.cost} vs untraced $cost, or counts changed")
      tracedT += tt; traces += tr
    }
    tracedRound(); tracedT.clear(); traces.clear() // warm-up
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    do {
      val (r, t) = Stats.timed(Slugger.summarize(g, Cfg))
      rep.record(chk.summaryOk(r, cost), s"${w.name}: untraced summary check")
      untraced += t
      tracedRound()
    } while (System.nanoTime() < deadline)
    rep.metric("trace.untraced_s", Stats.median(untraced.toSeq), "s")
    rep.metric("trace.summarize_s", Stats.median(tracedT.toSeq), "s")
    rep.metric("trace.overhead_ratio", Stats.median(tracedT.toSeq) / Stats.median(untraced.toSeq), "ratio")

    val tr = traces.head
    def secs(f: LayerTrace => Long): Double = Stats.median(traces.map(x => f(x) / 1e9).toSeq)
    rep.metric("candgen.s", secs(_.candgenNs), "s")
    rep.metric("candgen.groups", tr.groups.toDouble, "count")
    rep.metric("candgen.grouped_roots", tr.groupedRoots.toDouble, "count")
    rep.metric("candgen.max_group", tr.maxGroup.toDouble, "count")
    rep.metric("merge.pairs_scanned", tr.pairsScanned.toDouble, "count")
    rep.metric("merge.far_rejects", tr.farRejects.toDouble, "count")
    rep.metric("merge.saving_calls", tr.savingCalls.toDouble, "count")
    rep.metric("merge.saving_s", secs(_.savingNs), "s")
    rep.metric("merge.saving_alloc_mb", Stats.median(traces.map(_.savingBytes / 1e6).toSeq), "MB")
    rep.metric("merge.commits", tr.commits.toDouble, "count")
    rep.metric("merge.commit_s", secs(_.commitNs), "s")
    rep.metric("merge.theta_rejects", tr.thetaRejects.toDouble, "count")
    rep.metric("merge.accept_ratio",
      if (tr.savingCalls == 0) 0.0 else tr.commits.toDouble / tr.savingCalls, "ratio")
    rep.metric("prune.from_state_s", secs(_.fromStateNs), "s")
    rep.metric("prune.step1_s", secs(_.stepNs(1)), "s")
    rep.metric("prune.step2_s", secs(_.stepNs(2)), "s")
    rep.metric("prune.step3_s", secs(_.stepNs(3)), "s")
    rep.metric("prune.to_summary_s", secs(_.toSummaryNs), "s")
    rep.metric("prune.step1_removed", tr.stepCount(1).toDouble, "count")
    rep.metric("prune.step2_removed", tr.stepCount(2).toDouble, "count")
    rep.metric("prune.step3_changed", tr.stepCount(3).toDouble, "count")
    rep.metric("prune.cost_0", tr.cost0.toDouble, "count")
    rep.metric("prune.cost_3", tr.cost3.toDouble, "count")

    // Cold: the memo refill that every new JVM pays.
    MinCover.memoClear()
    tracedRound()
    rep.metric("encode.memo_keys", MinCover.memoSize, "count")
    Encode.measure(rep)

    model(w, r0.summary, seed, chk, rep)

    Sweg.summarize(g)
    val sweg = (1 to 3).map(_ => Stats.timed(Sweg.summarize(g))._2)
    rep.metric("baselines.sweg_s", Stats.median(sweg), "s")

    sparkLayer(w, s, chk, Stats.median(untraced.toSeq), rep)
  }

  private def model(w: Workload, sum: HierSummary, seed: Long, chk: Checks, rep: Report): Unit = {
    var alive = 0L
    sum.alive.foreach(a => if (a) alive += 1)
    rep.metric("model.alive_supernodes", alive.toDouble, "count")
    rep.metric("model.max_height", sum.maxHeight, "count")
    rep.metric("model.avg_leaf_depth", sum.avgLeafDepth, "count")
    rep.metric("model.p_edges", sum.pPlus.size, "count")
    rep.metric("model.n_edges", sum.pMinus.size, "count")
    rep.metric("model.h_edges", sum.hEdgeCount.toDouble, "count")

    // |leaves(x)| from the parent array, counted here, not by the model.
    val leaves = new Array[Long](sum.nSupers)
    (0 until sum.nSub).foreach { u =>
      var x = u
      while (x >= 0) { leaves(x) += 1; x = sum.parent(x) }
    }
    var expanded = 0L
    (sum.pPlus.iterator ++ sum.pMinus.iterator).foreach { case (x, y) => expanded += leaves(x) * leaves(y) }
    rep.metric("model.expanded_pairs", expanded.toDouble, "count")

    val order = queryOrder(sum.nSub, seed)
    val first = (1 to 5).map { _ =>
      val fresh = sum.copy()
      val (ns, t) = Stats.timed(fresh.neighbors(order(0)))
      rep.record(chk.neighborsOk(order(0), ns), s"${w.name}: neighbors(${order(0)})")
      t
    }
    rep.metric("model.incident_index_s", Stats.median(first), "s")

    // Per-call latency on a summary whose index is already built.
    val lat = new Array[Double](order.length * 3)
    var k = 0
    (1 to 3).foreach { _ =>
      order.foreach { v =>
        val t0 = System.nanoTime()
        val ns = sum.neighbors(v)
        lat(k) = (System.nanoTime() - t0) / 1e3
        k += 1
        rep.record(chk.neighborsOk(v, ns), s"${w.name}: neighbors($v)")
      }
    }
    rep.metric("model.neighbors_call_p50_us", Stats.median(lat.toSeq), "us")
    rep.metric("model.neighbors_call_p99_us", Stats.percentile(lat.toSeq, 99), "us")
    rep.metric("model.neighbors_calls", lat.length, "count")
  }

  private def sparkLayer(w: Workload, s: Setup, chk: Checks, localSec: Double, rep: Report): Unit = {
    def check(r: Slugger.Result): Unit =
      rep.record(chk.summaryOk(r, -1) && chk.decompressOk(r.summary.decompress),
        s"${w.name}: distributed summary is not lossless")
    check(SluggerSpark.summarize(s.spark, s.edges, Cfg)) // warm-up
    val lis = new SparkTrace
    s.spark.sparkContext.addSparkListener(lis)
    val w0 = System.currentTimeMillis()
    val (r, sec) = Stats.timed(SluggerSpark.summarize(s.spark, s.edges, Cfg))
    val w1 = System.currentTimeMillis()
    rep.record(lis.awaitQuiet(), s"${w.name}: Spark listener did not see every job end")
    s.spark.sparkContext.removeSparkListener(lis)
    check(r)
    val jobs = lis.allJobs.filter(j => j.startMs >= w0 && j.endMs <= w1 && j.endMs >= 0)
    rep.metric("spark.summarize_s", sec, "s")
    rep.metric("spark.vs_local_ratio", sec / localSec, "ratio")
    rep.metric("spark.jobs", jobs.length, "count")
    rep.metric("spark.tasks", lis.tasks.toDouble, "count")
    rep.metric("spark.candgen_jobs_s", lis.busySec(jobs.filterNot(_.search)), "s")
    rep.metric("spark.search_jobs_s", lis.busySec(jobs.filter(_.search)), "s")
    rep.metric("spark.executor_run_s", lis.runMs / 1e3, "s")
    rep.metric("spark.executor_cpu_s", lis.cpuNs / 1e9, "s")
    rep.metric("spark.ser_s", lis.serMs / 1e3, "s")
    rep.metric("spark.result_mb", lis.resultBytes / 1e6, "MB")
    rep.metric("spark.no_job_s", (w1 - w0) / 1e3 - lis.busySec(jobs), "s")
    rep.metric("spark.merges_replayed", r.totalMerges.toDouble, "count")
  }
}

/** `Panel` and `MinCover` timed at fixed inputs, for every Case 1 and Case 2
  * shape a binary merge forest can reach.
  */
object Encode {
  private val NSub = 100
  private val isLeaf: Int => Boolean = _ < NSub

  // A root is a leaf, or has two children, each a leaf or not.
  private def sides(self: Int, kids: (Int, Int)): Seq[(Int, Seq[Int])] =
    Seq((self % NSub, Nil)) ++ (for {
      l <- Seq(kids._1, NSub + kids._1); r <- Seq(kids._2, NSub + kids._2)
    } yield (NSub + self, Seq(l, r)))

  private val internalCases: Seq[() => Panel] = for {
    (a, ca) <- sides(1, (2, 3)); (b, cb) <- sides(4, (5, 6))
  } yield () => Panel.internal(ca, cb, a, b, -1, isLeaf)

  private val crossCases: Seq[() => Panel] = for {
    ca <- Seq(Nil, Seq(2, 3)); cb <- Seq(Nil, Seq(5, 6)); cc <- Seq(Nil, Seq(8, 9))
  } yield () => Panel.cross(ca, cb, if (ca.isEmpty) 1 else NSub + 1,
                            if (cb.isEmpty) 4 else NSub + 4, -1, NSub + 7, cc)

  /** Median microseconds per call over 5 repetitions of `reps` sweeps. */
  private def perCallUs(cases: Int, reps: Int)(sweep: => Unit): Double = {
    (1 to reps).foreach(_ => sweep)
    Stats.median((1 to 5).map { _ =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < reps) { sweep; i += 1 }
      (System.nanoTime() - t0) / 1e3 / (reps.toLong * cases)
    })
  }

  def measure(rep: Report): Unit = {
    rep.metric("encode.panel_internal_us",
      perCallUs(internalCases.length, 2000)(internalCases.foreach(_())), "us")
    rep.metric("encode.panel_cross_us",
      perCallUs(crossCases.length, 2000)(crossCases.foreach(_())), "us")

    // One valid key per shape: the coverage of the panel's first slot.
    val keys = (internalCases ++ crossCases).map(_()).filter(_.slots.nonEmpty).map { p =>
      val targets = Array.tabulate(p.nCons)(c => (p.slotCovers(0) >> c & 1L).toInt)
      (p, targets)
    }
    def solveAll(): Unit = keys.foreach { case (p, t) =>
      MinCover.solve(p.shape, p.slotCovers, t, List((0, 1)))
    }
    solveAll() // fill
    rep.metric("encode.mincover_hit_us", perCallUs(keys.length, 20000)(solveAll()), "us")
  }
}
