package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Budget.ClusterInfo

class BudgetSpec extends AnyFunSuite {

  private val ns1 = ClusterInfo(0, Seq("a", "b", "c"), 3000)
  private val ns2 = ClusterInfo(1, Seq("d", "e"), 1000)
  private val s1  = ClusterInfo(2, Seq("f"), 500)
  private val s2  = ClusterInfo(3, Seq("g"), 1500)

  test("needsMerge is Eq. 4") {
    assert(Budget.needsMerge(numClusters = 10, bTot = 90, bMin = 10))
    assert(!Budget.needsMerge(numClusters = 10, bTot = 100, bMin = 10))
  }

  test("every cluster receives at least b_min") {
    val b = Budget.distribute(Seq(ns1, ns2, s1, s2), bTot = 1000, bMin = 50)
    b.values.foreach(v => assert(v >= 50))
  }

  test("total allocation never exceeds b_tot") {
    val b = Budget.distribute(Seq(ns1, ns2, s1, s2), bTot = 1000, bMin = 50)
    assert(b.values.sum <= 1000)
  }

  test("non-singleton budget is proportional to vector counts (Eq. 9)") {
    val b = Budget.distribute(Seq(ns1, ns2, s1, s2), bTot = 1000, bMin = 50)
    // ns1 has 3x the vectors of ns2 → its above-minimum share is ~3x
    val extra1 = b(0) - 50; val extra2 = b(1) - 50
    assert(extra1 > extra2)
    assert(math.abs(extra1.toDouble / extra2 - 3.0) < 0.5)
  }

  test("singleton group gets its ratio of the remainder (Eq. 7)") {
    val b = Budget.distribute(Seq(ns1, ns2, s1, s2), bTot = 1000, bMin = 50)
    // singleton tasks are 2 of 7 problems → singleton extras ≈ 2/7 of b_rem
    val sExtra = (b(2) - 50) + (b(3) - 50)
    val bRem = 1000 - 4 * 50
    assert(math.abs(sExtra - bRem * 2.0 / 7.0) < bRem * 0.05)
  }

  test("budget is capped at the cluster pool size") {
    val tiny = ClusterInfo(9, Seq("x", "y"), 10)
    val b = Budget.distribute(Seq(tiny, ns1), bTot = 500, bMin = 20)
    assert(b(9) <= 10)
  }

  test("infeasible distribution throws") {
    assertThrows[IllegalArgumentException](
      Budget.distribute(Seq(ns1, ns2, s1, s2), bTot = 100, bMin = 50))
  }

  test("empty cluster list throws") {
    assertThrows[IllegalArgumentException](Budget.distribute(Nil, 100, 10))
  }

  test("all-singleton clusters split the whole budget") {
    val b = Budget.distribute(Seq(s1.copy(id = 0), s2.copy(id = 1)), bTot = 400, bMin = 50)
    assert(b.values.sum <= 400)
    assert(b(1) > b(0)) // s2 has more vectors
  }

  test("single non-singleton cluster receives (almost) everything") {
    val b = Budget.distribute(Seq(ns1), bTot = 300, bMin = 20)
    assert(b(0) >= 295)
  }

  test("zero-vector clusters fall back to equal shares") {
    val z1 = ClusterInfo(0, Seq("a", "b"), 0)
    val z2 = ClusterInfo(1, Seq("c", "d"), 0)
    val b = Budget.distribute(Seq(z1, z2), bTot = 100, bMin = 10)
    assert(b(0) == 0 || b(0) == b(1)) // capped at pool size 0
  }

  test("mergeSingletons absorbs singletons into the most similar host") {
    val merged = Budget.mergeSingletons(Seq(ns1, ns2, s1, s2),
      (_, host) => if (host.id == 1) 1.0 else 0.0)
    assert(merged.size == 2)
    val host = merged.find(_.id == 1).get
    assert(host.problemIds.toSet == Set("d", "e", "f", "g"))
    assert(host.totalVectors == 1000 + 500 + 1500)
  }

  test("mergeSingletons with no singletons is identity") {
    assert(Budget.mergeSingletons(Seq(ns1, ns2), (_, _) => 1.0) == Seq(ns1, ns2))
  }

  test("mergeSingletons with only singletons fuses them into one cluster") {
    val merged = Budget.mergeSingletons(Seq(s1, s2), (_, _) => 1.0)
    assert(merged.size == 1)
    assert(merged.head.problemIds.toSet == Set("f", "g"))
  }

  test("distribution is feasible after merging (property over random inputs)") {
    val rng = new scala.util.Random(1)
    (1 to 30).foreach { _ =>
      val n = 2 + rng.nextInt(8)
      val clusters = (0 until n).map { i =>
        val p = 1 + rng.nextInt(4)
        ClusterInfo(i, (0 until p).map(j => s"c${i}_$j"), 100 + rng.nextInt(5000))
      }
      val bMin = 5 + rng.nextInt(20)
      val bTot = n * bMin + rng.nextInt(2000)
      val b = Budget.distribute(clusters, bTot, bMin)
      assert(b.values.sum <= bTot)
      assert(b.keySet == clusters.map(_.id).toSet)
      b.foreach { case (id, v) =>
        assert(v >= math.min(bMin.toLong, clusters.find(_.id == id).get.totalVectors))
      }
    }
  }
}
