package perfbench

import java.util.Locale
import org.apache.spark.sql.DataFrame
import scala.collection.mutable

import repro.kb.KBIndex

/** Plain-Scala recomputation of index layers from the generated lake, apart
  * from the program's Spark dataflow. The results are keyed maps, compared
  * against the program's index with [[Recompute.compare]].
  */
object Recompute {

  /** (table, column) of the lake. */
  type Col = (String, Int)

  /** The lake's string cells as normalized rows: table → row → column → value.
    * Normalization: drop nulls, strip leading and trailing spaces, lower-case,
    * drop null tokens.
    */
  final case class Lake(rows: Map[String, Seq[Map[Int, String]]]) {

    /** Distinct values of every string column with at least one value. */
    lazy val columnValues: Map[Col, Set[String]] =
      rows.toSeq.flatMap { case (t, rs) =>
        rs.flatMap(_.toSeq).groupBy(_._1).map { case (c, vs) => (t, c) -> vs.map(_._2).toSet }
      }.toMap

    /** Distinct value pairs of every ordered pair of string columns of a table. */
    lazy val valuePairs: Map[(String, Int, Int), Set[(String, String)]] =
      rows.toSeq.flatMap { case (t, rs) =>
        rs.flatMap { r =>
          for ((a, va) <- r.toSeq; (b, vb) <- r.toSeq if a != b) yield ((t, a, b), (va, vb))
        }.groupBy(_._1).map { case (k, xs) => k -> xs.map(_._2).toSet }
      }.toMap
  }

  private val nullTokens = Set("", "null", "nan", "none", "n/a", "-")

  def normalize(v: String): Option[String] =
    Option(v).map(_.dropWhile(_ == ' ').reverse.dropWhile(_ == ' ').reverse.toLowerCase(Locale.ROOT))
      .filterNot(nullTokens.contains)

  def lake(cells: DataFrame): Lake = {
    val rows = cells.select("table_id", "row_id", "col_id", "value", "is_string").collect().toSeq
      .filter(_.getBoolean(4))
      .flatMap(r => normalize(r.getString(3)).map(v => (r.getString(0), r.getLong(1), r.getInt(2), v)))
    Lake(rows.groupBy(_._1).map { case (t, xs) =>
      t -> xs.groupBy(_._2).toSeq.sortBy(_._1).map(_._2.map(x => x._3 -> x._4).toMap)
    })
  }

  /** Unary FDs `col_det -> col_dep` of every table: every value of `col_det`
    * co-occurs with exactly one value of `col_dep`.
    */
  def unaryFds(lake: Lake): Set[(String, Int, Int)] =
    lake.valuePairs.collect {
      case (k, pairs) if pairs.groupBy(_._1).values.forall(_.size == 1) => k
    }.toSet

  /** Eq. 6 denominators as the synthesized KB stores them: for every column
    * pair in an FD in either direction, its number of distinct value pairs.
    */
  def fdPairSizes(lake: Lake): Map[(String, Int, Int), Long] = {
    val fds = unaryFds(lake)
    val both = fds ++ fds.map { case (t, a, b) => (t, b, a) }
    both.map(k => k -> lake.valuePairs(k).size.toLong).toMap
  }

  /** Eq. 5 synthesized column confidences: column c carries the type of
    * column c' with confidence |c ∩ c'| / |c|, counting only values found in
    * at most `maxValueSpread` columns; every column carries its own type with
    * confidence 1. Keys are (table, column, "table#column" of c').
    */
  def synthesizedColumnConfidences(lake: Lake, maxValueSpread: Int = 1000): Map[(String, Int, String), Double] = {
    val cols = lake.columnValues.keys.toVector.sorted
    val idx = cols.zipWithIndex.toMap
    val postings = mutable.HashMap[String, mutable.ArrayBuffer[Int]]()
    for ((c, vs) <- lake.columnValues; v <- vs) postings.getOrElseUpdate(v, mutable.ArrayBuffer()) += idx(c)
    val overlap = mutable.LongMap[Int]()
    val n = cols.size.toLong
    for (ps <- postings.values if ps.size <= maxValueSpread; a <- ps; b <- ps if a != b) {
      val key = a * n + b
      overlap(key) = overlap.getOrElse(key, 0) + 1
    }
    val cross = overlap.iterator.map { case (key, ov) =>
      val (a, b) = (cols((key / n).toInt), cols((key % n).toInt))
      (a._1, a._2, s"${b._1}#${b._2}") -> ov.toDouble / lake.columnValues(a).size
    }
    val self = cols.iterator.map(c => (c._1, c._2, s"${c._1}#${c._2}") -> 1.0)
    (self ++ cross).toMap
  }

  /** Eq. 4 KB relationship confidences of the lake's ordered column pairs:
    * for column pairs whose columns both hold a KB label, the best predicate
    * p maximizing |pairs with p| / |pairs with both values in the KB|, ties
    * to the predicate with fewer KB pairs, then by name. Keys are
    * (table, col_a, col_b); values (predicate, confidence).
    */
  def kbRelationshipConfidences(lake: Lake, kb: KBIndex): Map[(String, Int, Int), (String, Double)] = {
    val covered = kb.coveredLabels.collect().map(_.getString(0)).toSet
    val facts: Map[(String, String), Seq[(String, Long)]] =
      kb.relDict.select("label_subj", "label_obj", "predicate", "pred_pairs").collect().toSeq
        .map(r => (r.getString(0), r.getString(1)) -> (r.getString(2), r.getLong(3)))
        .groupBy(_._1).map { case (k, xs) => k -> xs.map(_._2).distinct }
    val withCs = lake.columnValues.keySet.filter(c => lake.columnValues(c).exists(covered.contains))
    lake.valuePairs.toSeq.flatMap { case ((t, a, b), pairs) =>
      if (!withCs((t, a)) || !withCs((t, b))) None
      else {
        val inKb = pairs.filter { case (x, y) => covered(x) && covered(y) }
        val perPred = inKb.toSeq.flatMap(p => facts.getOrElse(p, Seq.empty).map(f => f -> p))
          .groupBy(_._1).map { case ((pred, predPairs), xs) => (pred, predPairs, xs.map(_._2).distinct.size) }
        if (perPred.isEmpty) None
        else {
          val (pred, _, np) = perPred.toSeq.minBy { case (p, pp, k) => (-k, pp, p) }
          Some((t, a, b) -> (pred, np.toDouble / inKb.size))
        }
      }
    }.toMap
  }

  /** Compares the program's keyed values to the recomputed ones: the same
    * keys, and values equal within `tol` (numbers) or exactly (otherwise).
    */
  def compare[K, V](name: String, program: Map[K, V], expected: Map[K, V], tol: Double = Checks.Tolerance): Check = {
    def same(x: V, y: V): Boolean = (x, y) match {
      case (a: Double, b: Double) => math.abs(a - b) <= tol
      case ((p1, a: Double), (p2, b: Double)) => p1 == p2 && math.abs(a - b) <= tol
      case _ => x == y
    }
    val missing = expected.keySet.diff(program.keySet).toSeq.map(k => s"missing $k")
    val extra = program.keySet.diff(expected.keySet).toSeq.map(k => s"unexpected $k")
    val differ = expected.toSeq.collect {
      case (k, v) if program.contains(k) && !same(program(k), v) => s"$k: program ${program(k)}, expected $v"
    }
    val bad = missing ++ extra ++ differ
    Check(name, bad.isEmpty,
          if (bad.isEmpty) s"${expected.size} entries agree"
          else s"${bad.size} of ${expected.size} disagree: ${bad.take(3).mkString("; ")}")
  }
}
