package perfbench

import org.apache.spark.sql.SparkSession

import repro.eval.Method
import repro.kb.World
import repro.lake.BenchmarkGen
import repro.lake.BenchmarkGen.{Benchmark, DomainSpec, PropCol, SubjectCol}

/** One benchmark workload: a generated lake, the SANTOS variant that indexes
  * and searches it, and the effectiveness floor its rankings must clear.
  *
  * @param useKb     build the existing-KB dictionaries and KB CS/RS
  * @param useSynth  build the synthesized KB
  * @param lake      the generator of the lake and its queries, from a seed
  * @param defaultSeed the generator's own default seed for this lake
  * @param minPAtK   floor on the mean P@k of the batch rankings
  * @param d3lReference whether the traced run also times the D³L baseline
  */
final case class Workload(
    name: String,
    method: Method,
    useKb: Boolean,
    useSynth: Boolean,
    lake: (SparkSession, World, Long) => Benchmark,
    defaultSeed: Long,
    minPAtK: Double,
    d3lReference: Boolean = false)

object Workloads {

  val all: Seq[Workload] = Seq(
    // Fig. 10's headline row: lowest KB coverage, densest traps; both KBs and
    // the Eq. 10 selection are busy.
    Workload("large-full", Method.SantosFull, useKb = true, useSynth = true,
             (s, w, seed) => BenchmarkGen.large(s, w, seed), 303L,
             minPAtK = 0.5, d3lReference = true),
    // 90% KB coverage and no synthesized KB: KB dictionaries and KB CS/RS
    // do all of the index and annotation work.
    Workload("tus-kb", Method.SantosKB, useKb = true, useSynth = false,
             (s, w, seed) => BenchmarkGen.tus(s, w, seed), 101L,
             minPAtK = 0.5),
    // No existing KB: the synthesized KB answers every query, including the
    // zero-coverage domains.
    Workload("small-synth", Method.SantosSynth, useKb = false, useSynth = true,
             (s, w, seed) => BenchmarkGen.small(s, w, seed), 202L,
             minPAtK = 0.5),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** The 3-domain micro-lake of the repository's smoke test: one query domain
    * and two trap domains, for the benchmark's own tests.
    */
  def micro(spark: SparkSession, world: World): Benchmark =
    BenchmarkGen.generate(
      spark, world, "MICRO", k = 4,
      Seq(
        DomainSpec("parks", Some("park"), Seq(
          SubjectCol("park_name"), PropCol("supervisor", "ledby"), PropCol("city", "locatedin")),
          nSubjects = 80, nPartitions = 6, kbCoverage = 0.9, isQuery = true),
        DomainSpec("birthplaces", Some("person"), Seq(
          SubjectCol("person_name"), PropCol("city", "bornin")),
          nSubjects = 80, nPartitions = 5, kbCoverage = 0.9, isQuery = false),
        DomainSpec("movies", Some("movie"), Seq(
          SubjectCol("film_title"), PropCol("director", "directedby")),
          nSubjects = 80, nPartitions = 5, kbCoverage = 0.9, isQuery = false),
      ),
      queriesPerDomain = 1, seed = 7L)
}
