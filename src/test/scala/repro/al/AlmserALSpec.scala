package repro.al

import repro.{SparkSpec, TestData}

class AlmserALSpec extends SparkSpec {

  private def pool() = TestData.camera.pairs
    .select("problemId", "recA", "recB", "features", "label")

  test("selection fingerprint on the camera and music corpora is unchanged") {
    val cfg = ALConfig(kModels = 6, batchSize = 30, initSize = 20)
    def run(ds: repro.erdata.ERDataset) = SelectionFingerprint.of(AlmserAL.select(spark,
      ds.pairs.select("problemId", "recA", "recB", "features", "label"), 90, cfg, Map.empty, 1))
    assert((run(TestData.camera), run(TestData.music)) == (((90, 1292045990), (90, 672198700))))
  }

  test("one select on a pool larger than the budget runs exactly one Spark job") {
    val p = pool()
    assert(p.count() > 90)
    val jobs = SparkJobs.count(spark) {
      AlmserAL.select(spark, p, 90, ALConfig(kModels = 6, batchSize = 30, initSize = 20),
        Map.empty, 1)
    }
    assert(jobs == 1)
  }

  test("bridges of a path are all its edges") {
    val b = AlmserAL.bridges(Seq((1L, 2L), (2L, 3L), (3L, 4L)))
    assert(b == Set((1L, 2L), (2L, 3L), (3L, 4L)))
  }

  test("bridges of a cycle are empty") {
    val b = AlmserAL.bridges(Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    assert(b.isEmpty)
  }

  test("bridge between two cycles is detected") {
    val edges = Seq((1L, 2L), (2L, 3L), (3L, 1L), (4L, 5L), (5L, 6L), (6L, 4L), (3L, 4L))
    assert(AlmserAL.bridges(edges) == Set((3L, 4L)))
  }

  test("bridges handles disconnected components") {
    val b = AlmserAL.bridges(Seq((1L, 2L), (10L, 11L), (11L, 12L), (12L, 10L)))
    assert(b == Set((1L, 2L)))
  }

  test("bridges of an empty graph is empty") {
    assert(AlmserAL.bridges(Nil).isEmpty)
  }

  test("select respects the budget") {
    val out = AlmserAL.select(spark, pool(), budget = 90,
      ALConfig(kModels = 6, batchSize = 30, initSize = 20), Map.empty, seed = 1)
    assert(out.size == 90)
  }

  test("selected pairs are unique and truthfully labeled") {
    val out = AlmserAL.select(spark, pool(), 60,
      ALConfig(kModels = 6, batchSize = 30, initSize = 20), Map.empty, 2)
    assert(out.map(v => (v.problemId, v.recA, v.recB)).distinct.size == out.size)
    val truth = pool().collect().map(r =>
      (r.getString(0), r.getLong(1), r.getLong(2)) -> r.getInt(4)).toMap
    out.foreach(v => assert(truth((v.problemId, v.recA, v.recB)) == v.oracleLabel))
  }

  test("selection is deterministic in the seed") {
    val cfg = ALConfig(kModels = 6, batchSize = 30, initSize = 20)
    val a = AlmserAL.select(spark, pool(), 60, cfg, Map.empty, 4)
    val b = AlmserAL.select(spark, pool(), 60, cfg, Map.empty, 4)
    assert(a.map(v => (v.problemId, v.recA, v.recB)) == b.map(v => (v.problemId, v.recA, v.recB)))
  }

  test("small pool is returned whole") {
    val out = AlmserAL.select(spark, pool().limit(20), 100, ALConfig(), Map.empty, 1)
    assert(out.size == 20)
  }
}
