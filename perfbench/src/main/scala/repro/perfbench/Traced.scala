package repro.perfbench

import repro.core.local.{CandidateGen, MergeEngine, Metrics, Pruner, Slugger, SummaryState}
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** Per-layer counters and busy times of one traced summarize. */
final class LayerTrace {
  var candgenNs = 0L; var groups = 0L; var groupedRoots = 0L; var maxGroup = 0L
  var pairsScanned = 0L; var farRejects = 0L
  var savingCalls = 0L; var savingNs = 0L; var savingBytes = 0L
  var commits = 0L; var commitNs = 0L; var thetaRejects = 0L
  var fromStateNs = 0L; var toSummaryNs = 0L
  val stepNs = new Array[Long](4) // index 1..3
  val stepCount = new Array[Long](4)
  var cost0 = 0L; var cost3 = 0L

  /** Every count, which must repeat exactly from one traced run to the next. */
  def counts: Seq[Long] = Seq(groups, groupedRoots, maxGroup, pairsScanned, farRejects,
    savingCalls, commits, thetaRejects, cost0, cost3) ++ stepCount
}

/** Algorithms 1-3 driven from here through the public calls of
  * `CandidateGen`, `MergeEngine`, `Pruner` and `PruneState`, with a timer
  * and a counter at each call. Seeds and RNG order are those of
  * `Slugger.summarize`, so the summary must come out the same.
  */
object Traced {

  def summarize(g: LocalGraph, cfg: Slugger.Config, tr: LayerTrace): Slugger.Result = {
    val st = new SummaryState(g)
    val engine = new MergeEngine(st)
    val t0 = System.nanoTime()
    var merges = 0L
    var t = 1
    while (t <= cfg.T) {
      val c0 = System.nanoTime()
      val groups = CandidateGen.groups(st, cfg.seed + 7919L * t, cfg.maxGroupSize)
      tr.candgenNs += System.nanoTime() - c0
      tr.groups += groups.length
      groups.foreach { d => tr.groupedRoots += d.length; tr.maxGroup = math.max(tr.maxGroup, d.length.toLong) }
      val th = engine.theta(t, cfg.T)
      val rng = new Random(cfg.seed * 31 + t)
      groups.foreach(d => merges += processGroup(st, engine, d, th, rng, cfg.heightBound, tr))
      t += 1
    }
    val t1 = System.nanoTime()

    val f0 = System.nanoTime()
    val ps = Pruner.fromState(st)
    tr.fromStateNs += System.nanoTime() - f0
    val snaps = mutable.ArrayBuffer.empty[(String, Metrics)]
    def step(i: Int): Int = {
      val s0 = System.nanoTime()
      val c = i match {
        case 1 => Pruner.step1(ps)
        case 2 => Pruner.step2(ps)
        case _ => Pruner.step3(ps, g)
      }
      tr.stepNs(i) += System.nanoTime() - s0
      tr.stepCount(i) += c
      c
    }
    // Same order as Pruner.prune: a snapshot after each first-round substep,
    // then silent rounds until nothing changes or the rounds run out.
    snaps += (("0", ps.metrics)); step(1)
    snaps += (("1", ps.metrics)); step(2)
    snaps += (("2", ps.metrics)); step(3)
    snaps += (("3", ps.metrics))
    var r = 1
    while (r < cfg.pruneRounds) {
      val c = step(1) + step(2) + step(3)
      if (c == 0) r = cfg.pruneRounds else r += 1
    }
    val s0 = System.nanoTime()
    val summary = ps.toSummary
    tr.toSummaryNs += System.nanoTime() - s0
    val t2 = System.nanoTime()
    tr.cost0 = snaps(0)._2.cost
    tr.cost3 = snaps(3)._2.cost
    Slugger.Result(summary, snaps.toSeq, (t1 - t0) / 1000000, (t2 - t1) / 1000000, merges)
  }

  /** Algorithm 2 for one candidate set, as in `MergeEngine.processGroup`. */
  private def processGroup(st: SummaryState, engine: MergeEngine, group: Seq[Int], th: Double,
                           rng: Random, heightBound: Int, tr: LayerTrace): Int = {
    val q = mutable.ArrayBuffer.from(group.iterator.map(st.find).distinct.filter(st.isRoot))
    var merges = 0
    while (q.length > 1) {
      val a = q.remove(rng.nextInt(q.length))
      if (st.isRoot(a)) {
        var bestZ = -1
        var bestS = Double.NegativeInfinity
        var i = 0
        while (i < q.length) {
          val z = q(i)
          tr.pairsScanned += 1
          if (st.isRoot(z) && z != a &&
              math.max(st.heightOf(a), st.heightOf(z)) + 1 <= heightBound) {
            if (engine.closeEnough(a, z)) {
              val b0 = Stats.threadAllocated
              val n0 = System.nanoTime()
              val s = engine.saving(a, z)
              tr.savingNs += System.nanoTime() - n0
              tr.savingBytes += Stats.threadAllocated - b0
              tr.savingCalls += 1
              if (s > bestS) { bestS = s; bestZ = z }
            } else tr.farRejects += 1
          }
          i += 1
        }
        if (bestZ >= 0 && bestS >= th) {
          val n0 = System.nanoTime()
          val m = engine.merge(a, bestZ)
          tr.commitNs += System.nanoTime() - n0
          tr.commits += 1
          q -= bestZ
          q += m
          merges += 1
        } else if (bestZ >= 0) tr.thetaRejects += 1
      }
    }
    merges
  }
}
