package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

import repro.core.LakeIndex
import repro.core.UnionSearch.Ranked
import repro.eval.{Harness, Metrics}
import repro.kb.World
import repro.lake.BenchmarkGen.{Benchmark, QuerySpec}

/** The SANTOS benchmark (Fig. 10): index build, batch and point-query
  * latency, index size and MAP@k on one workload, in a closed loop with one
  * client.
  *
  * {{{ perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--points <n>] --out <dir> }}}
  *
  * Set-up is repeated [[SetupRepeats]] times and its median reported. The
  * measured part repeats whole rounds (index build, batch search, point
  * queries, release) until `--seconds` have passed, at least once. With
  * `--trace 1` the run records spans and Spark work around every call, then
  * calls each layer on its own, and reports per-layer metrics.
  *
  * The result line goes to `<out>/result.json`; the full record (settings,
  * metrics, sample counts, checks, spans) to `<out>/record.json`.
  */
object Main {

  val SetupRepeats = 3

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, points: Int, out: Path)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val w = Workloads.byName(need("workload")).getOrElse(
      sys.error(s"unknown workload ${need("workload")}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    Args(w,
         kv.get("seed").map(_.toLong).getOrElse(w.defaultSeed),
         kv.getOrElse("seconds", "1").toInt,
         kv.getOrElse("trace", "0") == "1",
         kv.getOrElse("points", "1").toInt,
         Paths.get(kv.getOrElse("out", ".")))
  }

  def seconds(nanos: Long): Double = nanos / 1e9
  def millis(nanos: Long): Double = nanos / 1e6
  def median(xs: Seq[Double]): Double = Metrics.percentile(xs, 0.5)

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, System.nanoTime() - t0)
  }

  /** Spark session as the shipped jobs make it: `jobs.JobSession`'s settings,
    * then `Harness.tuneSpark`.
    */
  def startSpark(): (SparkSession, World) = {
    val runner = jobs.JobSession.runner("perfbench")
    val spark = SparkSession.active
    Harness.tuneSpark(spark)
    (spark, runner.world)
  }

  def settings(spark: SparkSession): Seq[(String, Any)] = {
    val conf = spark.conf
    Seq(
      "master" -> spark.sparkContext.master,
      "cores" -> spark.sparkContext.defaultParallelism,
      "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.adaptive.enabled" -> conf.get("spark.sql.adaptive.enabled"),
      "spark.sql.adaptive.coalescePartitions.enabled" ->
        conf.get("spark.sql.adaptive.coalescePartitions.enabled"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "heap_max_bytes" -> Runtime.getRuntime.maxMemory,
      "spark_version" -> spark.version)
  }

  /** Bytes the block manager holds for each cached RDD, by RDD id. */
  def cachedBytes(spark: SparkSession): Map[Int, Long] =
    spark.sparkContext.getRDDStorageInfo.map(i => i.id -> (i.memSize + i.diskSize)).toMap

  /** Step 1: session, world, the workload's lake and queries, cached cells. */
  def setUp(w: Workload, seed: Long): (SparkSession, World, Benchmark) = {
    val (spark, world) = startSpark()
    val bench = w.lake(spark, world, seed)
    bench.lakeCells.persist().count()
    bench.queryCells.persist().count()
    (spark, world, bench)
  }

  /** What one measured round produced. */
  final case class Round(
      indexNanos: Long,
      indexBytes: Long,
      batchNanos: Long,
      batch: Search.Answer,
      pointNanos: Seq[Long],
      points: Map[String, Seq[Ranked]])

  /** Steps 2–4 and the release of step 5. `inspect` runs untimed on the live
    * index and the batch answer after the point queries.
    */
  def round(spark: SparkSession, world: World, w: Workload, bench: Benchmark,
            sample: Seq[QuerySpec], clock: Clock)(inspect: (LakeIndex, Search.Answer) => Unit): Round = {
    val before = cachedBytes(spark)
    val (index, indexNanos) = clock("index")(
      Search.buildIndex(spark, world, bench.lakeCells, w.useKb, w.useSynth, clock))
    try {
      val indexBytes = cachedBytes(spark).collect { case (id, b) if !before.contains(id) => b }.sum
      val (batch, batchNanos) = clock("batch.query")(
        Search.search(bench.queryCells, Search.intents(bench.queries), index, bench.k))
      val points = sample.map { q =>
        val (a, ns) = clock("single.query")(
          Search.search(Search.cellsOf(bench, q.tableId), Map(q.tableId -> q.intentCol), index, bench.k))
        (q.tableId, a.rankings(q.tableId), ns)
      }
      inspect(index, batch)
      Round(indexNanos, indexBytes, batchNanos, batch, points.map(_._3),
            points.map(p => p._1 -> p._2).toMap)
    } finally index.unpersistAll()
  }

  /** Recomputes index layers apart from the program and compares them with
    * the live index: the unary FDs and Eq. 5 confidences of the synthesized
    * KB when the workload builds it, the Eq. 4 KB relationship confidences
    * otherwise.
    */
  def recomputeChecks(lake: Recompute.Lake, index: LakeIndex): Seq[Check] = {
    def rows(df: DataFrame, cols: String*) = df.select(cols.head, cols.tail: _*).collect().toSeq
    index.synth match {
      case Some(s) => Seq(
        Recompute.compare("unary FDs: FD column pairs and their value-pair counts",
          rows(s.pairSizes, "table_id", "col_a", "col_b", "n_pairs")
            .map(r => (r.getString(0), r.getInt(1), r.getInt(2)) -> r.getLong(3)).toMap,
          Recompute.fdPairSizes(lake)),
        Recompute.compare("Eq. 5 synthesized column confidences",
          rows(s.synCS, "table_id", "col_id", "annotation", "conf")
            .map(r => (r.getString(0), r.getInt(1), r.getString(2)) -> r.getDouble(3)).toMap,
          Recompute.synthesizedColumnConfidences(lake)))
      case None => (for (k <- index.kb; rs <- index.kbRS) yield
        Recompute.compare("Eq. 4 KB relationship confidences",
          rows(rs, "table_id", "col_a", "col_b", "predicate", "conf")
            .map(r => (r.getString(0), r.getInt(1), r.getInt(2)) -> ((r.getString(3), r.getDouble(4)))).toMap,
          Recompute.kbRelationshipConfidences(lake, k))).toSeq
    }
  }

  def rankingChecks(w: Workload, bench: Benchmark, r: Round): Seq[Check] =
    Option.when(r.points.nonEmpty)(Checks.pointsMatchBatch(r.batch.rankings, r.points)).toSeq ++ Seq(
      Checks.scoresInRange(r.batch.trees, r.batch.rankings),
      Checks.rankingsWellFormed(r.batch.rankings, bench.k, Search.lakeTables(bench)),
      Checks.precisionFloor(r.batch.rankings, bench.groundTruth, bench.k, w.minPAtK))

  def metric(v: Double, unit: String): Seq[(String, Any)] = Seq("value" -> v, "unit" -> unit)

  /** Unit of a per-layer metric, from its name. */
  def layerUnit(name: String): String =
    if (name.endsWith("ms")) "ms" else if (name.endsWith("bytes")) "bytes" else "count"

  /** The traced run's per-layer metrics: query layers forced one at a time
    * on the live index (point sample, then batch), with a check that this
    * returns the program's rankings.
    */
  def queryLayers(l: Layers, bench: Benchmark, sample: Seq[QuerySpec], index: LakeIndex,
                  plain: Map[String, Seq[Ranked]]): (Seq[(String, Double)], Check) = {
    val single = sample.map { q =>
      l.search("single", Search.cellsOf(bench, q.tableId), Map(q.tableId -> q.intentCol), index, bench.k)
    }
    val (batch, batchMetrics) = l.search("batch", bench.queryCells, Search.intents(bench.queries), index, bench.k)
    val singleMetrics = single.flatMap(_._2).groupBy(_._1).toSeq.map { case (n, xs) => n -> median(xs.map(_._2)) }
    val staged = batch.rankings ++ single.flatMap(_._1.rankings)
    (singleMetrics ++ batchMetrics,
     Checks.pointsMatchBatch(plain, staged).copy(name = "layer-at-a-time rankings equal the program's"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = args.workload
    val setupNanos = mutable.ArrayBuffer[Long]()
    var state: Option[(SparkSession, World, Benchmark)] = None
    for (i <- 1 to SetupRepeats) {
      state.foreach { case (spark, _, bench) =>
        bench.lakeCells.unpersist(); bench.queryCells.unpersist()
        spark.stop()
      }
      val (s, ns) = timed(setUp(w, args.seed))
      state = Some(s)
      setupNanos += ns
      Console.err.println(f"[perfbench] set-up $i/$SetupRepeats: ${seconds(ns)}%.2f s")
    }
    val (spark, world, bench) = state.get
    val conf = settings(spark)
    Console.err.println(s"[perfbench] ${w.name} seed=${args.seed} " +
      conf.map { case (k, v) => s"$k=$v" }.mkString(" "))
    // Point queries are timed in the traced run only: each costs about as much
    // as the whole batch, and the untraced runs must stay short.
    val sample = if (args.trace) Search.pointSample(bench, args.seed, args.points) else Seq.empty
    Console.err.println(s"[perfbench] point queries: ${sample.map(_.tableId).mkString(", ")}")

    val tracer = if (args.trace) Some(new Tracer(spark)) else None
    val layers = tracer.map(new Layers(spark, _))
    val clock = Clock(tracer)
    val checks = mutable.ArrayBuffer[Check]()
    var makeUp = Seq.empty[(String, Any)]
    val layerMetrics = mutable.ArrayBuffer[(String, Double)]()

    val rounds = mutable.ArrayBuffer[Round]()
    val deadline = System.nanoTime() + args.seconds * 1000000000L
    do {
      val first = rounds.isEmpty
      val r = round(spark, world, w, bench, sample, clock) { (index, batch) =>
        if (first) {
          val lake = Recompute.lake(bench.lakeCells)
          checks ++= recomputeChecks(lake, index)
          makeUp = Seq(
            "string_cells" -> lake.rows.values.map(_.map(_.size.toLong).sum).sum,
            "distinct_value_pairs" -> lake.valuePairs.values.map(_.size.toLong).sum,
            "fd_column_pairs" -> Recompute.fdPairSizes(lake).size)
          layers.foreach { l =>
            val (m, c) = queryLayers(l, bench, sample, index, batch.rankings)
            layerMetrics ++= m
            checks += c
          }
        }
      }
      Console.err.println(f"[perfbench] round ${rounds.size + 1}: index ${seconds(r.indexNanos)}%.2f s, " +
        f"batch ${seconds(r.batchNanos)}%.2f s, point queries " +
        r.pointNanos.map(ns => f"${millis(ns)}%.0f").mkString(" ") + " ms")
      rounds += r
    } while (System.nanoTime() < deadline)

    checks ++= rankingChecks(w, bench, rounds.head)
    checks += Checks.deterministic(rounds.map(_.batch.rankings).toSeq)

    val e2e = Seq(
      "setup_s" -> metric(median(setupNanos.map(seconds).toSeq), "s"),
      "index_build_s" -> metric(median(rounds.map(r => seconds(r.indexNanos)).toSeq), "s"),
      "batch_query_s" -> metric(median(rounds.map(r => seconds(r.batchNanos)).toSeq), "s"),
      "index_bytes" -> metric(median(rounds.map(_.indexBytes.toDouble).toSeq), "bytes"),
      "map_at_k" -> metric(Checks.meanMapAtK(rounds.head.batch.rankings, bench.groundTruth, bench.k), "ratio"))

    for (t <- tracer; l <- layers) {
      def named(n: String) = t.all.filter(_.name == n)
      val staged = l.index(world, bench.lakeCells, w.useKb, w.useSynth)
      // FDDiscovery runs again inside SynthesizedKB.build, and the KB
      // dictionaries are built before SemanticIndex.build.
      val stagedMillis = staged.collect {
        case (n, v) if n.endsWith(".ms") && !n.startsWith("kb.") && !n.startsWith("core.FDDiscovery") => v
      }.sum
      val semantic = named("core.SemanticIndex").head
      layerMetrics ++= staged ++ Seq(
        "core.SemanticIndex.ms" -> semantic.millis,
        "core.SemanticIndex.stages" -> semantic.work.stages.toDouble,
        "core.SemanticIndex.shuffle_write_bytes" -> semantic.work.shuffleWriteBytes.toDouble,
        "core.SemanticIndex.unattributed_ms" -> (semantic.millis - stagedMillis))
      for (p <- Seq("single", "batch");
           (m, f) <- Seq[(String, Span => Double)]("ms" -> (_.millis), "jobs" -> (_.work.jobs.toDouble),
                                                   "stages" -> (_.work.stages.toDouble), "tasks" -> (_.work.tasks.toDouble)))
        layerMetrics += s"$p.query.$m" -> median(named(s"$p.query").map(f))
      layerMetrics ++= (
        if (w.d3lReference) l.d3l(bench, sample)
        else Seq("baselines.D3L.buildIndex.ms", "baselines.D3L.search.ms", "baselines.D3L.search.stages").map(_ -> 0.0))
      t.close()
    }

    val perLayer = layerMetrics.toSeq.sortBy(_._1).map { case (n, v) => n -> metric(v, layerUnit(n)) }
    val correct = checks.forall(_.passed)
    val attempted = rounds.size * (2 + sample.size)
    val result = Seq("correct" -> correct, "attempted" -> attempted, "failed" -> 0,
                     "metrics" -> (if (args.trace) perLayer else e2e))
    val record = Seq(
      "workload" -> w.name, "method" -> w.method.label, "seed" -> args.seed, "trace" -> args.trace,
      "settings" -> conf,
      "lake" -> (Seq("tables" -> bench.nLakeTables, "columns" -> bench.nLakeColumns, "rows" -> bench.nLakeRows) ++
                 makeUp ++ Seq("queries" -> bench.queries.size, "k" -> bench.k)),
      "samples" -> Seq("setups" -> setupNanos.size, "rounds" -> rounds.size, "point_queries" -> rounds.map(_.pointNanos.size).sum,
                       "point_query_tables" -> sample.map(_.tableId)),
      "attempted" -> attempted, "failed" -> 0, "correct" -> correct,
      "checks" -> checks.toSeq.map(c => Seq("name" -> c.name, "passed" -> c.passed, "detail" -> c.detail)),
      "end_to_end" -> e2e,
      "per_layer" -> perLayer,
      "spans" -> tracer.toSeq.flatMap(_.all).map(s => Seq(
        "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "start_ns" -> s.startNanos, "end_ns" -> s.endNanos,
        "jobs" -> s.work.jobs, "stages" -> s.work.stages, "tasks" -> s.work.tasks,
        "shuffle_write_bytes" -> s.work.shuffleWriteBytes, "rows" -> s.rows)))

    checks.foreach(c => Console.err.println(
      s"[perfbench] check ${if (c.passed) "ok  " else "FAIL"} ${c.name}: ${c.detail}"))
    Console.err.println("[perfbench] end-to-end: " +
      e2e.map { case (n, m) => s"$n=${m.head._2}" }.mkString(" "))
    Files.createDirectories(args.out)
    Files.write(args.out.resolve("record.json"), Json.write(record).getBytes(StandardCharsets.UTF_8))
    Files.write(args.out.resolve("result.json"), Json.write(result).getBytes(StandardCharsets.UTF_8))
    spark.stop()
  }
}
