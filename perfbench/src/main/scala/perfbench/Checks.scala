package perfbench

import repro.core.QueryTree
import repro.core.UnionSearch.Ranked
import repro.eval.Metrics

/** The outcome of one correctness check of a run's outputs. */
final case class Check(name: String, passed: Boolean, detail: String)

/** Checks of the rankings a run produced. Each takes the program's output as
  * plain values, so the benchmark's tests can feed it altered copies.
  */
object Checks {

  val Tolerance = 1e-9

  private def first[A](bad: Seq[A], n: Int = 3): String = bad.take(n).mkString("; ")

  /** Every point-query ranking equals that query's ranking in the batch: the
    * same table ids in the same order, and scores within [[Tolerance]].
    */
  def pointsMatchBatch(batch: Map[String, Seq[Ranked]],
                       points: Map[String, Seq[Ranked]]): Check = {
    val bad = points.toSeq.sortBy(_._1).filter { case (q, p) =>
      val b = batch.getOrElse(q, Seq.empty)
      p.map(_.tableId) != b.map(_.tableId) ||
        p.zip(b).exists { case (x, y) => math.abs(x.score - y.score) > Tolerance }
    }
    Check("point rankings equal batch rankings", bad.isEmpty,
          if (bad.isEmpty) s"${points.size} point queries"
          else s"${bad.size} differ: " + first(bad.map { case (q, p) => s"$q point=$p batch=${batch.get(q)}" }))
  }

  /** Every score lies in (0, number of query-tree edges]: S(Q,T) sums one
    * pairMatch per mapped edge, and each pairMatch is at most 1.
    */
  def scoresInRange(trees: Seq[QueryTree], rankings: Map[String, Seq[Ranked]]): Check = {
    val edges = trees.map(t => t.tableId -> t.edges.size).toMap
    val bad = rankings.toSeq.sortBy(_._1).flatMap { case (q, rs) =>
      val n = edges.getOrElse(q, 0)
      rs.filterNot(r => r.score > 0.0 && r.score <= n + Tolerance).map(r => s"$q: $r with $n edges")
    }
    Check("scores in (0, query-tree edges]", bad.isEmpty,
          if (bad.isEmpty) s"${rankings.values.map(_.size).sum} scores" else s"${bad.size} out of range: ${first(bad)}")
  }

  /** Each ranking is sorted by descending score and holds at most k distinct
    * tables of the lake.
    */
  def rankingsWellFormed(rankings: Map[String, Seq[Ranked]], k: Int, lakeTables: Set[String]): Check = {
    val bad = rankings.toSeq.sortBy(_._1).flatMap { case (q, rs) =>
      val ids = rs.map(_.tableId)
      Seq(
        if (rs.size > k) Some(s"$q: ${rs.size} > k=$k results") else None,
        if (ids.distinct.size != ids.size) Some(s"$q: repeated tables") else None,
        if (!ids.forall(lakeTables.contains)) Some(s"$q: tables not in the lake ${ids.filterNot(lakeTables.contains)}") else None,
        if (rs.zip(rs.drop(1)).exists { case (a, b) => a.score < b.score }) Some(s"$q: not sorted") else None,
      ).flatten
    }
    Check("rankings sorted, at most k distinct lake tables", bad.isEmpty,
          if (bad.isEmpty) s"${rankings.size} rankings, k=$k" else first(bad))
  }

  /** Mean P@k of the rankings against the generator's ground truth. */
  def meanPAtK(rankings: Map[String, Seq[Ranked]], truth: Map[String, Set[String]], k: Int): Double =
    Metrics.mean(truth.keys.toSeq.sorted.map(q =>
      Metrics.precisionAtK(rankings.getOrElse(q, Seq.empty).map(_.tableId), truth(q), k)))

  /** Mean MAP@k (Eq. 13) of the rankings against the ground truth. */
  def meanMapAtK(rankings: Map[String, Seq[Ranked]], truth: Map[String, Set[String]], k: Int): Double =
    Metrics.mean(truth.keys.toSeq.sorted.map(q =>
      Metrics.mapAtK(rankings.getOrElse(q, Seq.empty).map(_.tableId), truth(q), k)))

  /** Mean P@k stays above the workload's floor. */
  def precisionFloor(rankings: Map[String, Seq[Ranked]], truth: Map[String, Set[String]],
                     k: Int, floor: Double): Check = {
    val p = meanPAtK(rankings, truth, k)
    Check(f"mean P@$k > $floor%.2f", p > floor, f"P@$k = $p%.4f over ${truth.size} queries")
  }

  /** Every round returned exactly the first round's rankings. */
  def deterministic(rounds: Seq[Map[String, Seq[Ranked]]]): Check = {
    val bad = rounds.zipWithIndex.drop(1).filter(_._1 != rounds.head).map(_._2 + 1)
    Check("every round returns the same rankings", bad.isEmpty,
          if (bad.isEmpty) s"${rounds.size} rounds" else s"rounds ${bad.mkString(",")} differ from round 1")
  }
}
