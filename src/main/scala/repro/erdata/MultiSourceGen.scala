package repro.erdata

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** Per-source corruption profile. The paper's datasets draw their
  * difficulty from per-source heterogeneity (typos, dropped tokens,
  * missing values, numeric noise); MoRER's clustering exploits exactly
  * this: source pairs with similar profiles produce similar similarity
  * distributions. Profiles are therefore the lever that gives the
  * synthetic corpora a real cluster structure.
  */
final case class CorruptionProfile(
    typoRate: Double,      // per-character substitution probability
    tokenDropRate: Double, // per-token drop probability (titles)
    missingRate: Double,   // whole-attribute blank-out probability
    numJitter: Double,     // relative numeric noise amplitude
    abbrevRate: Double,    // per-token truncate-to-prefix probability
)

/** Entity domain controlling vocabulary and base-attribute synthesis. */
sealed trait Domain extends Serializable
case object CameraDomain   extends Domain
case object ComputerDomain extends Domain
case object MusicDomain    extends Domain

/** Full generator configuration for one multi-source corpus. */
final case class GenConfig(
    name: String,
    domain: Domain,
    nSources: Int,
    nEntities: Long,
    /** Probability an entity appears in a given source. */
    presence: Double,
    /** Probability of a second (differently corrupted) record of the same
      * entity in the same source — intra-source duplicates (Dexter). */
    dupRate: Double,
    profiles: IndexedSeq[CorruptionProfile],
    /** true: per-entity train/test halves (WDC/Music); false: one split. */
    splitHalves: Boolean,
    /** true: include self-linkage problems (Dk,Dk) — dirty sources. */
    selfProblems: Boolean,
    seed: Long,
) extends Serializable {
  def profileOf(source: Int): CorruptionProfile = profiles(source % profiles.size)
}

/** A generated raw record (generic 3-string/2-numeric attribute schema).
  * `block` is the blocking key derived from the *corrupted* attribute
  * values — records whose key attributes are corrupted away are lost to
  * blocking, as in real pipelines.
  */
final case class GenRecord(
    source: Int, split: String, recId: Long, entityId: Long,
    a1: String, a2: String, a3: String, num1: Double, num2: Double,
    block: String)

/** Synthetic analogues of the paper's three multi-source ER corpora.
  *
  * Substitution (documented in DESIGN.md §3): the real Dexter /
  * WDC-computer / MusicBrainz corpora are replaced by deterministic
  * generators that reproduce their topology (#sources, #ER problems,
  * split scheme, intra-source duplicates), approximate scale and match
  * skew, and — crucially — per-source heterogeneity profiles so the ER
  * problems exhibit the clustered similarity-distribution structure the
  * paper's method exploits.
  */
object MultiSourceGen {

  // ---------------------------------------------------------------- vocab

  private val CameraBrands = Vector("canon", "nikon", "sony", "fujifilm", "olympus",
    "panasonic", "pentax", "leica", "samsung", "kodak", "sigma", "casio")
  private val ComputerBrands = Vector("lenovo", "dell", "hp", "asus", "acer", "apple",
    "msi", "toshiba", "samsung", "lg", "fujitsu", "gigabyte", "razer", "huawei", "medion")
  private val Artists = Vector("aurora", "brightside", "cascade", "duskfall", "eastwind",
    "fireline", "gravity", "horizon", "ironwood", "jetstream", "kaleido", "lumen",
    "meridian", "nightowl", "obsidian", "pulsar", "quartz", "redshift", "solstice",
    "tidal", "umbra", "vertigo", "wildfire", "xenon", "yonder", "zephyr")
  private val TitleWords = Vector("ultra", "pro", "digital", "compact", "zoom", "wide",
    "angle", "black", "silver", "kit", "lens", "body", "edition", "series", "mark",
    "premium", "hd", "mp", "optical", "stabilized")
  private val ComputerWords = Vector("laptop", "notebook", "desktop", "tower", "intel",
    "core", "ryzen", "ssd", "ram", "gb", "inch", "display", "graphics", "gaming",
    "business", "slim", "pro", "ultra", "wifi", "windows")
  private val SongWords = Vector("love", "night", "dream", "fire", "rain", "heart",
    "dance", "light", "road", "river", "summer", "winter", "golden", "broken", "wild",
    "silent", "electric", "midnight", "forever", "echo")

  // ------------------------------------------------------- base synthesis

  /** Deterministic base (uncorrupted) attributes of an entity. */
  private[erdata] def baseEntity(domain: Domain, ent: Long, seed: Long): GenRecord = {
    val rng = new Random(seed * 0x9E3779B97F4A7C15L + ent * 0x100000001B3L + 17)
    domain match {
      case CameraDomain =>
        val brand = CameraBrands(rng.nextInt(CameraBrands.size))
        val model = s"${('a' + rng.nextInt(26)).toChar}${100 + rng.nextInt(900)}" +
          s"${('a' + rng.nextInt(26)).toChar}"
        val words = Seq.fill(3 + rng.nextInt(3))(TitleWords(rng.nextInt(TitleWords.size)))
        val price = 50.0 + rng.nextInt(2400) + rng.nextInt(100) / 100.0
        GenRecord(-1, "", -1, ent, s"$brand $model ${words.mkString(" ")}",
          brand, model, math.round(price * 100) / 100.0, 0.0, "")
      case ComputerDomain =>
        val brand = ComputerBrands(rng.nextInt(ComputerBrands.size))
        val model = s"${('a' + rng.nextInt(26)).toChar}${('a' + rng.nextInt(26)).toChar}" +
          s"${10 + rng.nextInt(90)}"
        val words = Seq.fill(4 + rng.nextInt(3))(ComputerWords(rng.nextInt(ComputerWords.size)))
        val price = 200.0 + rng.nextInt(3000)
        GenRecord(-1, "", -1, ent, s"$brand $model ${words.mkString(" ")}",
          brand, model, price, 0.0, "")
      case MusicDomain =>
        val artist = Artists(rng.nextInt(Artists.size))
        val title  = Seq.fill(2 + rng.nextInt(3))(SongWords(rng.nextInt(SongWords.size))).mkString(" ")
        val album  = Seq.fill(1 + rng.nextInt(2))(SongWords(rng.nextInt(SongWords.size))).mkString(" ") + " album"
        val length = 120.0 + rng.nextInt(360)          // seconds
        val year   = rng.nextInt(70).toDouble          // years since 1950
        GenRecord(-1, "", -1, ent, title, artist, album, length, year, "")
    }
  }

  // ----------------------------------------------------------- corruption

  private val Letters = "abcdefghijklmnopqrstuvwxyz"

  private[erdata] def corruptString(s: String, p: CorruptionProfile, rng: Random,
                                    dropTokens: Boolean): String = {
    if (s.isEmpty || rng.nextDouble() < p.missingRate) return ""
    var toks = s.split(" ").toIndexedSeq
    if (dropTokens && toks.length > 2)
      toks = toks.zipWithIndex.filter { case (_, i) => i < 2 || rng.nextDouble() >= p.tokenDropRate }.map(_._1)
    toks = toks.map { t =>
      val abbrev = if (t.length > 4 && rng.nextDouble() < p.abbrevRate) t.take(3) else t
      abbrev.map(c => if (rng.nextDouble() < p.typoRate) Letters(rng.nextInt(26)) else c).mkString
    }
    toks.mkString(" ")
  }

  private[erdata] def corruptNum(v: Double, p: CorruptionProfile, rng: Random): Double =
    if (v == 0.0) 0.0
    else if (rng.nextDouble() < p.missingRate) 0.0
    else math.max(0.0, math.round(v * (1.0 + (rng.nextDouble() * 2 - 1) * p.numJitter) * 100) / 100.0)

  /** All (possibly duplicated) records of one entity across all sources. */
  private[erdata] def recordsOf(cfg: GenConfig, ent: Long): Seq[GenRecord] = {
    val base  = baseEntity(cfg.domain, ent, cfg.seed)
    val split =
      if (!cfg.splitHalves) "all"
      else if (((ent * 2654435761L + cfg.seed) & 0x7FFFFFFF) % 2 == 0) "train" else "test"
    (0 until cfg.nSources).flatMap { s =>
      val prng = new Random(cfg.seed * 31 + ent * 131071 + s * 524287)
      if (prng.nextDouble() >= cfg.presence) Seq.empty
      else {
        // duplicate count: 1 + Bern(dupRate) + Bern(dupRate·0.3) — real dirty
        // sources (Dexter) have multi-record duplicate groups
        val nDup = 1 + (if (prng.nextDouble() < cfg.dupRate) 1 else 0) +
          (if (prng.nextDouble() < cfg.dupRate * 0.3) 1 else 0)
        (0 until nDup).map { d =>
          val crng = new Random(cfg.seed * 131 + ent * 8191 + s * 127 + d * 7919)
          val prof = cfg.profileOf(s)
          val rec = base.copy(
            source = s, split = split,
            recId = ent * 256 + s * 4 + d,
            a1 = corruptString(base.a1, prof, crng, dropTokens = true),
            a2 = corruptString(base.a2, prof, crng, dropTokens = false),
            a3 = corruptString(base.a3, prof, crng, dropTokens = false),
            num1 = corruptNum(base.num1, prof, crng),
            num2 = if (cfg.domain == MusicDomain) corruptNum(base.num2 + 1, prof, crng) - 1
                   else base.num2,
          )
          rec.copy(block = blockKeyOf(cfg.domain)(rec))
        }
      }
    }
  }

  /** Distributed record generation: one pass over the entity range. */
  def records(spark: SparkSession, cfg: GenConfig): DataFrame = {
    import spark.implicits._
    spark.range(cfg.nEntities)
      .repartition(math.max(spark.sparkContext.defaultParallelism,
                            (cfg.nEntities / 50000 + 1).toInt))
      .flatMap(ent => recordsOf(cfg, ent))
      .toDF()
  }

  // ----------------------------------------------------- dataset presets

  /** Dexter analogue: 23 camera sources, intra-source duplicates, self
    * linkage problems → 23·24/2 = 276 ER problems; four heterogeneity
    * profiles cycled over the sources (the paper calls Dexter the most
    * heterogeneous/noisy corpus). sf=1 ≈ 23K records / ~1M pairs.
    */
  def dexterConfig(sf: Double = 1.0, seed: Long = 42): GenConfig = GenConfig(
    name = "dexter", domain = CameraDomain, nSources = 23,
    nEntities = math.max(60, (800 * sf).toLong), presence = 0.95, dupRate = 0.35,
    profiles = IndexedSeq(
      CorruptionProfile(0.005, 0.03, 0.01, 0.01, 0.01),  // clean
      CorruptionProfile(0.06,  0.08, 0.03, 0.05, 0.02),  // typo-heavy
      CorruptionProfile(0.01,  0.35, 0.05, 0.02, 0.25),  // token-dropping / abbreviating
      CorruptionProfile(0.03,  0.10, 0.25, 0.20, 0.05),  // missing-heavy + noisy numbers
    ),
    splitHalves = false, selfProblems = true, seed = seed)

  /** WDC-computer analogue: 4 computer sources, per-entity train/test
    * halves → 6 source pairs × 2 splits = 12 ER problems. sf=1 ≈ 4K
    * records / ~75K pairs, ~6% matches.
    */
  def wdcConfig(sf: Double = 1.0, seed: Long = 43): GenConfig = GenConfig(
    name = "wdc", domain = ComputerDomain, nSources = 4,
    nEntities = math.max(80, (1600 * sf).toLong), presence = 0.8, dupRate = 0.0,
    profiles = IndexedSeq(
      CorruptionProfile(0.01, 0.05, 0.02, 0.02, 0.02),
      CorruptionProfile(0.05, 0.12, 0.04, 0.08, 0.03),
      CorruptionProfile(0.02, 0.30, 0.08, 0.03, 0.20),
      CorruptionProfile(0.04, 0.10, 0.20, 0.15, 0.05),
    ),
    splitHalves = true, selfProblems = false, seed = seed)

  /** Music analogue: 5 homogeneous song sources, train/test halves →
    * 10 source pairs × 2 = 20 ER problems. sf=1 ≈ 16K records / ~380K
    * pairs, ~4% matches. A single mild profile: the paper stresses that
    * Music is the homogeneous corpus where the distribution-test choice
    * barely matters.
    */
  def musicConfig(sf: Double = 1.0, seed: Long = 44): GenConfig = GenConfig(
    name = "music", domain = MusicDomain, nSources = 5,
    nEntities = math.max(100, (6500 * sf).toLong), presence = 0.5, dupRate = 0.0,
    profiles = IndexedSeq(
      CorruptionProfile(0.02, 0.08, 0.05, 0.04, 0.03),
      CorruptionProfile(0.03, 0.10, 0.06, 0.05, 0.03),
    ),
    splitHalves = true, selfProblems = false, seed = seed)

  /** Feature specs per domain — the `features` array layout. */
  def specsFor(domain: Domain): Seq[FeatureSpec] = domain match {
    case CameraDomain | ComputerDomain => Seq(
      JaccardTokens("a1", "simTitle"),
      LevenshteinSim("a2", "simBrand"),
      LevenshteinSim("a3", "simModel"),
      NumericSim("num1", "simPrice"))
    case MusicDomain => Seq(
      JaccardTokens("a1", "simTitle"),
      LevenshteinSim("a2", "simArtist"),
      JaccardTokens("a3", "simAlbum"),
      NumericSim("num1", "simLength"),
      NumericSim("num2", "simYear"))
  }

  /** Blocking-key cardinality is the knob that sets the non-match/match
    * ratio of the blocked pair sets (see DESIGN.md §3): Dexter blocks on
    * brand prefix × model initial (~300 keys), WDC on brand × a coarse
    * model bucket (~45), Music on artist initial × decade (~130).
    */
  def blockKeyOf(domain: Domain)(r: GenRecord): String = domain match {
    case CameraDomain =>
      val b = r.a2.take(4); val m = r.a3.take(1)
      if (b.isEmpty || m.isEmpty) "" else s"$b|$m"
    case ComputerDomain =>
      val b = r.a2
      val m = if (r.a3.isEmpty) -1 else r.a3.charAt(0).toInt % 3
      if (b.isEmpty || m < 0) "" else s"$b|$m"
    case MusicDomain =>
      val a = r.a2.take(1)
      if (a.isEmpty) "" else s"$a|${(r.num2 / 14).toInt}"
  }

  /** The ER-problem list implied by a config (matches the paper's counts:
    * dexter 276, wdc 12, music 20).
    */
  def problemsOf(cfg: GenConfig): Seq[ERProblem] = {
    val splits = if (cfg.splitHalves) Seq("train", "test") else Seq("all")
    for {
      a <- 0 until cfg.nSources
      b <- a until cfg.nSources
      if a != b || cfg.selfProblems
      sp <- splits
    } yield ERProblem(problemId(a, b, sp, cfg.splitHalves), a, b, sp)
  }

  def problemId(a: Int, b: Int, split: String, withSplit: Boolean): String =
    if (withSplit) s"p${a}_${b}_$split" else s"p${a}_$b"

  /** Build the full dataset: records → blocked pairs → features. The
    * pair table keeps no raw attributes once the features exist.
    */
  def generate(spark: SparkSession, cfg: GenConfig): ERDataset = {
    val recs  = records(spark, cfg)
    val pairs = Blocking.candidatePairs(recs, cfg)
    val withF = repro.core.FeatureVectors.withFeatures(pairs, specsFor(cfg.domain))
      .drop(pairs.columns.toSeq.filter(c => c.startsWith("a_") || c.startsWith("b_")): _*)
    ERDataset(cfg.name, recs, withF, specsFor(cfg.domain), problemsOf(cfg))
  }
}
