package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.D3L
import repro.core._
import repro.kb.{KBDictionaries, World}
import repro.lake.BenchmarkGen.{Benchmark, QuerySpec}
import repro.lake.LakeSchema

/** The traced, layer-at-a-time execution of the pipeline. Each layer is
  * called through its module's public function and forced (persist + count)
  * on the persisted output of the layer before it, so its span holds only
  * its own work. Per-layer metrics are named `<module>.<metric>`.
  */
final class Layers(spark: SparkSession, tracer: Tracer) {

  private def forced(df: DataFrame): (DataFrame, Long) = {
    df.persist()
    (df, df.count())
  }

  private def full(prefix: String, s: Span): Seq[(String, Double)] = Seq(
    s"$prefix.ms" -> s.millis,
    s"$prefix.stages" -> s.work.stages.toDouble,
    s"$prefix.shuffle_write_bytes" -> s.work.shuffleWriteBytes.toDouble,
    s"$prefix.rows" -> s.rows.toDouble)

  /** Runs a layer as a span when the workload uses it; an idle layer is not
    * called and reports an empty span.
    */
  private def layer[A](name: String, busy: Boolean)(body: => (A, Long)): (Option[A], Span) =
    if (busy) { val (a, s) = tracer.spanRows(name)(body); (Some(a), s) }
    else (None, Span(-1, None, name, 0L, 0L, SparkWork.zero, 0L))

  /** Index layers in pipeline order, each forced on the persisted output of
    * the one before, and released at the end. Layers the workload does not
    * use report 0.
    */
  def index(world: World, lakeCells: DataFrame, useKb: Boolean, useSynth: Boolean): Seq[(String, Double)] =
    tracer.span("staged.index") {
      val (kb, kbSpan) = layer("kb.KBDictionaries", useKb) {
        val k = KBDictionaries.build(spark, world).materialize()
        (k, Seq(k.labels, k.typeDict, k.relDict, k.coveredLabels).map(_.count()).sum)
      }
      val (pairs, pairsSpan) = layer("lake.LakeSchema.valuePairs", busy = true)(forced(LakeSchema.valuePairs(lakeCells)))
      val (cs, csSpan) = layer("core.ColumnSemantics", useKb)(
        forced(ColumnSemantics.compute(lakeCells, kb.get, isQuery = false)))
      val (rs, rsSpan) = layer("core.RelationshipSemantics", useKb)(
        forced(RelationshipSemantics.computeFromPairs(pairs.get, kb.get, cs.get)))
      val (fds, fdSpan) = layer("core.FDDiscovery", useSynth)(
        forced(FDDiscovery.meaningfulPairs(FDDiscovery.unaryFds(pairs.get))))
      val (synth, synthSpan) = layer("core.SynthesizedKB", useSynth) {
        val s = SynthesizedKB.build(lakeCells, excludeKb = kb, precomputedPairs = pairs).materialize()
        (s, Seq(s.synCS, s.synRS, s.colVals, s.colSizes, s.fdPairVals, s.pairSizes).map(_.count()).sum)
      }
      synth.foreach(_.unpersistAll())
      (pairs ++ cs ++ rs ++ fds).foreach(_.unpersist())
      kb.foreach(_.unpersistAll())

      Seq("kb.KBDictionaries.ms" -> kbSpan.millis, "kb.KBDictionaries.rows" -> kbSpan.rows.toDouble) ++
        full("lake.LakeSchema.valuePairs", pairsSpan) ++
        full("core.ColumnSemantics", csSpan) ++
        full("core.RelationshipSemantics", rsSpan) ++
        Seq("core.FDDiscovery.ms" -> fdSpan.millis, "core.FDDiscovery.stages" -> fdSpan.work.stages.toDouble,
            "core.FDDiscovery.rows" -> fdSpan.rows.toDouble) ++
        full("core.SynthesizedKB", synthSpan)
    }._1

  /** One search with every query layer forced between calls. Returns the
    * rankings and the layers' metrics under `prefix`.
    */
  def search(prefix: String, cells: DataFrame, intents: Map[String, Int],
             index: LakeIndex, k: Int): (Search.Answer, Seq[(String, Double)]) =
    tracer.span(s"$prefix.staged")(stagedSearch(prefix, cells, intents, index, k))._1

  private def stagedSearch(prefix: String, cells: DataFrame, intents: Map[String, Int],
                           index: LakeIndex, k: Int): (Search.Answer, Seq[(String, Double)]) = {
    val (ann, annSpan) = tracer.spanRows(s"$prefix.core.QueryAnnotator.annotate") {
      val a = QueryAnnotator.annotate(cells, index)
      (a, Seq(a.kbCS, a.kbRS, a.synCS, a.synRS).flatten.map(forced(_)._2).sum)
    }
    val annDfs = Seq(ann.kbCS, ann.kbRS, ann.synCS, ann.synRS).flatten
    try {
      val (trees, treeSpan) = tracer.span(s"$prefix.core.QueryAnnotator.queryTrees")(
        QueryAnnotator.queryTrees(ann, intents))
      val (edges, edgeSpan) = tracer.spanRows(s"$prefix.core.Scoring.edgeScores")(
        forced(Scoring.edgeScores(ann, index)))
      try {
        val (ranked, rankSpan) = tracer.span(s"$prefix.core.UnionSearch.searchAll")(
          UnionSearch.searchAll(trees, edges, k))
        val candidates = edges.select("q_table", "t_table").distinct().count()
        (Search.Answer(trees, ranked),
         full(s"$prefix.core.QueryAnnotator.annotate", annSpan) ++
           Seq(s"$prefix.core.QueryAnnotator.queryTrees.ms" -> treeSpan.millis,
               s"$prefix.core.QueryAnnotator.queryTrees.stages" -> treeSpan.work.stages.toDouble) ++
           full(s"$prefix.core.Scoring.edgeScores", edgeSpan) ++
           Seq(s"$prefix.core.UnionSearch.searchAll.ms" -> rankSpan.millis,
               s"$prefix.core.UnionSearch.searchAll.candidates" -> candidates.toDouble))
      } finally edges.unpersist()
    } finally annDfs.foreach(_.unpersist())
  }

  /** D³L's index build and its search over the point-query sample. */
  def d3l(bench: Benchmark, sample: Seq[QuerySpec]): Seq[(String, Double)] = {
    val (index, buildSpan) = tracer.span("baselines.D3L.buildIndex")(D3L.buildIndex(bench.lakeCells))
    val spans = sample.map { q =>
      tracer.span("baselines.D3L.search")(
        D3L.search(Search.cellsOf(bench, q.tableId), index, Seq(q.tableId), bench.k))._2
    }
    Seq("baselines.D3L.buildIndex.ms" -> buildSpan.millis,
        "baselines.D3L.search.ms" -> Main.median(spans.map(_.millis)),
        "baselines.D3L.search.stages" -> Main.median(spans.map(_.work.stages.toDouble)))
  }
}
