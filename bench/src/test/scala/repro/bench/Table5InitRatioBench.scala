package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Table 5 — impact of the initial ER-problem ratio on Dexter:
  * F1 ± std for ratio_init ∈ {30%, 50%} × budgets {1000, 1500, 2000} ×
  * AL ∈ {Almser, Bootstrap}, over repeated problem splits.
  *
  * Paper shape: 50% initial ratio is at least as good and markedly more
  * stable (lower std) than 30%; both AL methods reach high F1 at 50%.
  */
class Table5InitRatioBench extends SparkSpec {

  private lazy val rows = Experiments.table5(spark)

  private def row(b: Int, r: Double, al: String) =
    rows.find(x => x.budget == b && x.ratioInit == r && x.alName == al).get

  test("print Table 5") {
    println(s"== Table 5: initial-ratio sweep on Dexter (sf=${Experiments.benchSfAux}) ==")
    println("paper (Almser):    1000/30% 0.83±0.067 | 1000/50% 0.934±0.001 | " +
      "1500/30% 0.939±0.003 | 1500/50% 0.94±0.001 | 2000/30% 0.84±0.029 | 2000/50% 0.93±0.001")
    println("paper (Bootstrap): 1000/30% 0.90±0.029 | 1000/50% 0.89±0.012 | " +
      "1500/30% 0.79±0.015 | 1500/50% 0.89±0.024 | 2000/30% 0.895±0.017 | 2000/50% 0.90±0.017")
    println(Experiments.formatTable5(rows))
  }

  test("50% initial ratio reaches high linkage quality for both AL methods") {
    for (b <- Seq(1000, 1500, 2000); al <- Seq("Almser", "Bootstrap"))
      assert(row(b, 0.5, al).f1Mean > 0.8, s"b=$b $al: ${row(b, 0.5, al).f1Mean}")
  }

  test("30% initial ratio never clearly beats 50% (averaged over budgets)") {
    for (al <- Seq("Almser", "Bootstrap")) {
      val m30 = Seq(1000, 1500, 2000).map(b => row(b, 0.3, al).f1Mean).sum / 3
      val m50 = Seq(1000, 1500, 2000).map(b => row(b, 0.5, al).f1Mean).sum / 3
      assert(m50 >= m30 - 0.03, s"$al: 30% $m30 vs 50% $m50")
    }
  }

  test("the sweep covers the full paper grid") {
    assert(rows.size == 12)
    assert(rows.forall(r => r.f1Std >= 0.0))
  }
}
