package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core._
import repro.core.UnionSearch.Ranked
import repro.kb.{KBDictionaries, World}
import repro.lake.BenchmarkGen.{Benchmark, QuerySpec}

/** The index build and search sequence of `repro.eval.Harness` for the
  * relationship-based SANTOS variants, through the same public functions.
  */
object Search {

  /** Query trees and top-k rankings of one search. */
  final case class Answer(trees: Seq[QueryTree], rankings: Map[String, Seq[Ranked]])

  /** The KB dictionaries when the variant uses them, then the semantic index. */
  def buildIndex(spark: SparkSession, world: World, lakeCells: DataFrame,
                 useKb: Boolean, useSynth: Boolean, clock: Clock = Clock.off): LakeIndex = {
    val kb = clock("kb.KBDictionaries")(
      if (useKb) Some(KBDictionaries.build(spark, world).materialize()) else None)._1
    clock("core.SemanticIndex")(SemanticIndex.build(lakeCells, kb, useSynth).materialize())._1
  }

  /** annotate → queryTrees → edgeScores → searchAll, with the query
    * annotations persisted for the duration of the search, as `Harness` does.
    */
  def search(cells: DataFrame, intents: Map[String, Int], index: LakeIndex, k: Int): Answer = {
    val ann = QueryAnnotator.annotate(cells, index)
    val annDfs = Seq(ann.kbCS, ann.kbRS, ann.synCS, ann.synRS).flatten
    annDfs.foreach(_.persist())
    try {
      val trees = QueryAnnotator.queryTrees(ann, intents)
      Answer(trees, UnionSearch.searchAll(trees, Scoring.edgeScores(ann, index), k))
    } finally annDfs.foreach(_.unpersist())
  }

  def intents(queries: Seq[QuerySpec]): Map[String, Int] =
    queries.map(q => q.tableId -> q.intentCol).toMap

  /** One query table's cells, filtered from the query cells as `Harness` does. */
  def cellsOf(bench: Benchmark, tableId: String): DataFrame =
    bench.queryCells.filter(col("table_id") === tableId)

  /** The point-query sample of a seed: the first query of each of `n` query
    * domains, starting at domain `seed mod D` in generation order, so that
    * consecutive seeds cover every domain. Queries of one domain share their
    * ground-truth set, which identifies the domain.
    */
  def pointSample(bench: Benchmark, seed: Long, n: Int): Seq[QuerySpec] = {
    val firsts = bench.queries.groupBy(q => bench.groundTruth(q.tableId)).values
      .map(_.head).toSeq.sortBy(q => bench.queries.indexOf(q))
    val start = Math.floorMod(seed, firsts.size.toLong).toInt
    (0 until math.min(n, firsts.size)).map(i => firsts((start + i) % firsts.size))
  }

  def lakeTables(bench: Benchmark): Set[String] =
    bench.lakeCells.select("table_id").distinct().collect().map(_.getString(0)).toSet
}
