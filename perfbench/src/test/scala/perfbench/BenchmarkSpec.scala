package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.core.{LakeIndex, QueryTree}
import repro.core.UnionSearch.Ranked
import repro.eval.{Harness, Method}
import repro.kb.World
import repro.lake.BenchmarkGen.Benchmark

/** The benchmark's own code on the smoke test's micro-lake: its search
  * sequence returns the program's rankings, and each check passes on the
  * program's output and fails on an altered copy of it.
  */
class BenchmarkSpec extends AnyFunSuite with BeforeAndAfterAll {

  lazy val (spark: SparkSession, world: World) = Main.startSpark()
  lazy val micro: Benchmark = {
    val b = Workloads.micro(spark, world)
    b.lakeCells.persist().count()
    b.queryCells.persist().count()
    b
  }
  lazy val query: String = micro.queries.head.tableId

  /** One index per variant, its batch answer and its point-query answer. */
  final case class Variant(index: LakeIndex, batch: Search.Answer, point: Map[String, Seq[Ranked]])

  private val variants = scala.collection.mutable.Map[Method, Variant]()

  def variant(m: Method, useKb: Boolean, useSynth: Boolean): Variant = variants.getOrElseUpdate(m, {
    val index = Search.buildIndex(spark, world, micro.lakeCells, useKb, useSynth)
    val batch = Search.search(micro.queryCells, Search.intents(micro.queries), index, micro.k)
    val q = micro.queries.head
    val point = Search.search(Search.cellsOf(micro, q.tableId), Map(q.tableId -> q.intentCol), index, micro.k)
    Variant(index, batch, point.rankings)
  })

  def full: Variant = variant(Method.SantosFull, useKb = true, useSynth = true)
  def kbOnly: Variant = variant(Method.SantosKB, useKb = true, useSynth = false)

  override def afterAll(): Unit = {
    variants.values.foreach(_.index.unpersistAll())
    spark.stop()
    super.afterAll()
  }

  for ((m, useKb, useSynth) <- Seq((Method.SantosFull, true, true), (Method.SantosKB, true, false),
                                   (Method.SantosSynth, false, true)))
    test(s"the benchmark's search sequence returns Harness.run's rankings for ${m.label}") {
      val v = variant(m, useKb, useSynth)
      val harness = Harness.run(spark, world, micro, m)
      assert(v.batch.rankings === harness.rankings)
      assert(v.point === harness.rankings)
    }

  test("the point sample rotates with the seed and covers every query domain") {
    val lake = Workloads.byName("small-synth").get.lake(spark, world, 202L)
    val domains = lake.queries.map(q => lake.groundTruth(q.tableId)).distinct
    val covered = (0L until domains.size.toLong).flatMap(s => Search.pointSample(lake, s, 1))
    assert(covered.map(q => lake.groundTruth(q.tableId)).toSet === domains.toSet)
    assert(Search.pointSample(lake, 5L, 1) === Search.pointSample(lake, 5L + domains.size, 1))
  }

  test("point rankings equal batch rankings, and not an altered copy") {
    assert(Checks.pointsMatchBatch(full.batch.rankings, full.point).passed)
    val p = full.point(query)
    val reordered = Map(query -> p.reverse)
    val rescored = Map(query -> (p.head.copy(score = p.head.score + 1e-6) +: p.tail))
    val truncated = Map(query -> p.dropRight(1))
    Seq(reordered, rescored, truncated).foreach(alt =>
      assert(!Checks.pointsMatchBatch(full.batch.rankings, alt).passed))
  }

  test("scores lie in (0, query-tree edges], and not in an altered copy") {
    val b = full.batch
    assert(Checks.scoresInRange(b.trees, b.rankings).passed)
    val edges = b.trees.find(_.tableId == query).get.edges.size
    val rs = b.rankings(query)
    Seq(edges + 0.5, 0.0, -1.0).foreach { s =>
      val alt = b.rankings.updated(query, rs.head.copy(score = s) +: rs.tail)
      assert(!Checks.scoresInRange(b.trees, alt).passed)
    }
    val fewerEdges = b.trees.map(t => QueryTree(t.tableId, t.intentCol, t.edges.take(0)))
    assert(!Checks.scoresInRange(fewerEdges, b.rankings).passed)
  }

  test("rankings are sorted with at most k distinct lake tables, and not an altered copy") {
    val b = full.batch
    val tables = Search.lakeTables(micro)
    assert(Checks.rankingsWellFormed(b.rankings, micro.k, tables).passed)
    val rs = b.rankings(query)
    assert(rs.size >= 2)
    val alts = Seq(
      rs.reverse,
      rs :+ rs.head,
      rs :+ Ranked("not_a_table", 0.0),
      rs ++ tables.toSeq.sorted.filterNot(rs.map(_.tableId).contains).take(micro.k).map(Ranked(_, 0.0)))
    alts.foreach(alt => assert(!Checks.rankingsWellFormed(b.rankings.updated(query, alt), micro.k, tables).passed))
  }

  test("P@k clears the floor, and not for an altered copy") {
    val b = full.batch
    assert(Checks.precisionFloor(b.rankings, micro.groundTruth, micro.k, 0.5).passed)
    val traps = Search.lakeTables(micro).diff(micro.groundTruth(query)).toSeq.sorted.take(micro.k)
    val alt = b.rankings.updated(query, traps.map(Ranked(_, 1.0)))
    assert(!Checks.precisionFloor(alt, micro.groundTruth, micro.k, 0.5).passed)
  }

  test("repeated rounds agree, and an altered round does not") {
    val r = full.batch.rankings
    assert(Checks.deterministic(Seq(r, r)).passed)
    assert(!Checks.deterministic(Seq(r, r.updated(query, r(query).reverse))).passed)
  }

  test("unary FDs and Eq. 5 confidences recompute to the index, and not to an altered copy") {
    val checks = Main.recomputeChecks(Recompute.lake(micro.lakeCells), full.index)
    assert(checks.map(_.name).exists(_.contains("unary FDs")))
    assert(checks.map(_.name).exists(_.contains("Eq. 5")))
    checks.foreach(c => assert(c.passed, c.detail))

    val lake = Recompute.lake(micro.lakeCells)
    val fds = Recompute.fdPairSizes(lake)
    assert(fds.nonEmpty)
    val (k0, n0) = fds.head
    assert(!Recompute.compare("fd", fds.updated(k0, n0 + 1), fds).passed)
    assert(!Recompute.compare("fd", fds.removed(k0), fds).passed)
    val cs = Recompute.synthesizedColumnConfidences(lake)
    val (c0, v0) = cs.find(_._2 < 1.0).get
    assert(!Recompute.compare("cs", cs.updated(c0, v0 + 1e-6), cs).passed)
    assert(!Recompute.compare("cs", cs.updated(c0.copy(_3 = "x#0"), v0), cs).passed)
  }

  test("Eq. 4 relationship confidences recompute to the index, and not to an altered copy") {
    val checks = Main.recomputeChecks(Recompute.lake(micro.lakeCells), kbOnly.index)
    assert(checks.map(_.name) === Seq("Eq. 4 KB relationship confidences"))
    assert(checks.head.passed, checks.head.detail)

    val rs = Recompute.kbRelationshipConfidences(Recompute.lake(micro.lakeCells), kbOnly.index.kb.get)
    assert(rs.nonEmpty)
    val (k0, (p0, c0)) = rs.head
    assert(!Recompute.compare("rs", rs.updated(k0, (p0, c0 * 0.5)), rs).passed)
    assert(!Recompute.compare("rs", rs.updated(k0, ("another_predicate", c0)), rs).passed)
  }

  test("the JSON writer emits objects in order, arrays and escaped strings") {
    assert(Json.write(Seq("b" -> 1, "a" -> Seq(1.5, "x\"y"), "c" -> None, "d" -> true)) ===
      """{"b":1,"a":[1.5,"x\"y"],"c":null,"d":true}""")
  }
}
