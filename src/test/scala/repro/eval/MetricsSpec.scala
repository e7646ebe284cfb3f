package repro.eval

import repro.{Oracle, SparkSpec}

class MetricsSpec extends SparkSpec {
  import spark.implicits._
  import Metrics._

  test("confusion counts match a hand-built table") {
    val labels = Array(1, 1, 1, 0, 0, 0)
    val scores = Array(0.9, 0.5, 0.1, 0.7, 0.4, 0.2)
    assert(Confusion.at(scores, labels, 0.5) == Confusion(tp = 2, fp = 1, fn = 1, tn = 2))
    assert(Confusion.at(scores, labels, 0.0) == Confusion(tp = 3, fp = 3, fn = 0, tn = 0))
    assert(Confusion.at(scores, labels, 1.0) == Confusion(tp = 0, fp = 0, fn = 3, tn = 3))
  }

  test("confusion matches DuckDB (oracle)") {
    val rng = new scala.util.Random(1)
    val rows = Seq.fill(500)((rng.nextInt(2), rng.nextInt(100) / 100.0))
    val labels = rows.map(_._1).toArray
    val scores = rows.map(_._2).toArray
    for (t <- Seq(0.0, 0.25, 0.5, 0.99, 1.0)) {
      val c = Confusion.at(scores, labels, t)
      Oracle.assertEquivalent(
        Seq((c.tp, c.fp, c.fn, c.tn)).toDF("tp", "fp", "fn", "tn"),
        s"""SELECT
          |  count(*) FILTER (WHERE label='1' AND CAST(score AS DOUBLE) >= $t) AS tp,
          |  count(*) FILTER (WHERE label='0' AND CAST(score AS DOUBLE) >= $t) AS fp,
          |  count(*) FILTER (WHERE label='1' AND CAST(score AS DOUBLE) < $t) AS fn,
          |  count(*) FILTER (WHERE label='0' AND CAST(score AS DOUBLE) < $t) AS tn
          |FROM t""".stripMargin,
        "t" -> rows.toDF("label", "score"))
    }
  }

  test("empty prediction set yields zero confusion and F1 0") {
    val c = Confusion.at(Array.empty, Array.empty, 0.5)
    assert(c == Confusion.empty && c.f1 == 0.0)
  }

  test("bestThreshold takes the first grid threshold of the largest F1") {
    // F1 is 1 at every threshold in (0.3, 0.7]: 0.4 is the first of them.
    val scores = Array(0.9, 0.7, 0.3, 0.1)
    val labels = Array(1, 1, 0, 0)
    assert(bestThreshold(Seq(0.2, 0.4, 0.6, 0.8), scores, labels) == 0.4)
    assert(bestThreshold(Seq(0.6, 0.4, 0.2, 0.8), scores, labels) == 0.6)
  }

  test("perfect predictions give F1 1") {
    assert(Confusion(10, 0, 0, 5).f1 == 1.0)
  }

  test("precision and recall formulas") {
    val c = Confusion(tp = 6, fp = 2, fn = 4, tn = 8)
    assert(math.abs(c.precision - 0.75) < 1e-12)
    assert(math.abs(c.recall - 0.6) < 1e-12)
    assert(math.abs(c.f1 - 2 * 0.75 * 0.6 / 1.35) < 1e-12)
  }

  test("degenerate denominators give 0 not NaN") {
    assert(Confusion(0, 0, 0, 5).precision == 0.0)
    assert(Confusion(0, 0, 0, 5).recall == 0.0)
    assert(Confusion(0, 0, 0, 5).f1 == 0.0)
  }

  test("confusion addition is componentwise") {
    val a = Confusion(1, 2, 3, 4); val b = Confusion(10, 20, 30, 40)
    assert(a + b == Confusion(11, 22, 33, 44))
  }

  test("meanStd of constant sequence is (c, 0)") {
    assert(meanStd(Seq(2.0, 2.0, 2.0)) == (2.0, 0.0))
  }

  test("meanStd matches a hand computation") {
    val (m, s) = meanStd(Seq(1.0, 3.0))
    assert(m == 2.0 && math.abs(s - 1.0) < 1e-12)
  }

  test("meanStd of empty is (0,0)") {
    assert(meanStd(Nil) == (0.0, 0.0))
  }
}
