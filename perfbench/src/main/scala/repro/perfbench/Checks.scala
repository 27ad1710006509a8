package repro.perfbench

import repro.core.local.Slugger
import repro.core.model.HierSummary
import repro.graph.LocalGraph

/** Output checks. Each answer is computed here from the input graph or from
  * the summary's raw fields, never through the code under test.
  */
final class Checks(g: LocalGraph) {
  val edgeSet: Set[(Int, Int)] = g.edgeSet

  /** PageRank over the raw adjacency, with the same teleport and leak rule
    * as Algorithm 6.
    */
  def pageRankRef(d: Double, iters: Int): Array[Double] = {
    val n = g.n
    var r = Array.fill(n)(1.0 / n)
    var it = 0
    while (it < iters) {
      val next = new Array[Double](n)
      var u = 0
      while (u < n) {
        val nb = g.adj(u)
        if (nb.length > 0) {
          val share = r(u) / nb.length
          var i = 0
          while (i < nb.length) { next(nb(i)) += share; i += 1 }
        }
        u += 1
      }
      var sum = 0.0
      next.foreach(sum += _)
      val leaked = 1.0 - d * sum
      r = next.map(x => d * x + leaked / n)
      it += 1
    }
    r
  }
  lazy val pageRank: Array[Double] = pageRankRef(0.85, 20)

  def pageRankOk(pr: Array[Double]): Boolean =
    pr.length == g.n && pr.indices.forall(i => math.abs(pr(i) - pageRank(i)) <= 1e-9)

  def neighborsOk(v: Int, ns: Set[Int]): Boolean = {
    val adj = g.adj(v)
    ns.size == adj.length && adj.forall(ns.contains)
  }

  def decompressOk(es: Set[(Int, Int)]): Boolean = es == edgeSet

  /** |P+| + |P-| + |H| recounted from the summary's fields. */
  def recount(s: HierSummary): Long = {
    var h = 0L
    var x = 0
    while (x < s.parent.length) {
      if (s.alive(x) && s.parent(x) >= 0) h += 1
      x += 1
    }
    s.pPlus.distinct.size.toLong + s.pMinus.distinct.size + h
  }

  /** Checks that need no decompression: the cost recount, Table IV snapshot
    * costs that never rise, and the same cost as every earlier run at this
    * seed (`expected`, or -1 for the first run).
    */
  def summaryOk(r: Slugger.Result, expected: Long): Boolean = {
    val c = r.summary.cost
    val snaps = r.snapshots.map(_._2.cost)
    recount(r.summary) == c &&
      snaps.length == 4 && snaps.zip(snaps.drop(1)).forall { case (a, b) => b <= a } &&
      (expected < 0 || c == expected)
  }
}
