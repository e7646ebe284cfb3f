package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class DecisionTreeSpec extends AnyFunSuite {

  private def sep(n: Int, seed: Long = 1): IndexedSeq[LabeledVector] = {
    // linearly separable on feature 0 at 0.5
    val rng = new Random(seed)
    IndexedSeq.fill(n) {
      val x = rng.nextDouble()
      LabeledVector(Array(x, rng.nextDouble()), if (x > 0.5) 1 else 0)
    }
  }

  test("pure-positive data yields a probability-1 leaf") {
    val t = DecisionTree.fit(IndexedSeq.fill(10)(LabeledVector(Array(0.3, 0.4), 1)))
    assert(t == Leaf(1.0))
  }

  test("pure-negative data yields a probability-0 leaf") {
    val t = DecisionTree.fit(IndexedSeq.fill(10)(LabeledVector(Array(0.3, 0.4), 0)))
    assert(t == Leaf(0.0))
  }

  test("separable data is classified perfectly") {
    val d = sep(200)
    val t = DecisionTree.fit(d)
    assert(d.forall(v => (t.predictProb(v.features) >= 0.5) == (v.label == 1)))
  }

  test("the learned split is on the informative feature near the boundary") {
    val d = sep(500)
    DecisionTree.fit(d, maxDepth = 1) match {
      case Split(f, thr, _, _) =>
        assert(f == 0)
        assert(math.abs(thr - 0.5) < 0.1, s"threshold $thr far from 0.5")
      case other => fail(s"expected a split, got $other")
    }
  }

  test("maxDepth bounds the tree depth") {
    def depth(t: TreeNode): Int = t match {
      case Leaf(_)           => 1
      case Split(_, _, l, r) => 1 + math.max(depth(l), depth(r))
    }
    val d = sep(500, seed = 2)
    for (md <- 1 to 5)
      assert(depth(DecisionTree.fit(d, maxDepth = md)) <= md + 1)
  }

  test("minLeaf prevents splits below the leaf size") {
    val d = sep(6)
    val t = DecisionTree.fit(d, minLeaf = 4)
    assert(t.isInstanceOf[Leaf])
  }

  test("fit is deterministic in the seed") {
    val d = sep(300, seed = 3)
    assert(DecisionTree.fit(d, seed = 9) == DecisionTree.fit(d, seed = 9))
  }

  test("different feature-subset seeds may give different trees but consistent predictions on separable data") {
    val d = sep(300, seed = 4)
    val t1 = DecisionTree.fit(d, seed = 1)
    val t2 = DecisionTree.fit(d, seed = 2)
    val agree = d.count(v => (t1.predictProb(v.features) >= 0.5) == (t2.predictProb(v.features) >= 0.5))
    assert(agree >= d.size * 95 / 100)
  }

  test("empty data is rejected") {
    assertThrows[IllegalArgumentException](DecisionTree.fit(IndexedSeq.empty))
  }

  test("single example yields a leaf with its label probability") {
    assert(DecisionTree.fit(IndexedSeq(LabeledVector(Array(0.1), 1))) == Leaf(1.0))
  }

  test("XOR-ish data needs depth 2") {
    val d = for { a <- 0 to 1; b <- 0 to 1; _ <- 1 to 10 }
      yield LabeledVector(Array(a.toDouble, b.toDouble), a ^ b)
    val deep = DecisionTree.fit(d.toIndexedSeq, maxDepth = 3)
    assert(d.forall(v => (deep.predictProb(v.features) >= 0.5) == (v.label == 1)))
  }

  test("predictProb is always in [0,1]") {
    val d = sep(100, seed = 11)
    val t = DecisionTree.fit(d)
    val rng = new Random(12)
    (1 to 200).foreach { _ =>
      val p = t.predictProb(Array(rng.nextDouble(), rng.nextDouble()))
      assert(p >= 0.0 && p <= 1.0)
    }
  }

  test("constant features produce a leaf (no informative split)") {
    val rng = new Random(0)
    val d = IndexedSeq.fill(50)(LabeledVector(Array(0.5, 0.5), rng.nextInt(2)))
    assert(DecisionTree.fit(d).isInstanceOf[Leaf])
  }

  test("noisy labels still yield majority-consistent predictions") {
    val rng = new Random(7)
    val d = IndexedSeq.tabulate(400) { _ =>
      val x = rng.nextDouble()
      val noisy = rng.nextDouble() < 0.05
      LabeledVector(Array(x), if ((x > 0.5) ^ noisy) 1 else 0)
    }
    val t = DecisionTree.fit(d)
    val acc = d.count(v => (t.predictProb(v.features) >= 0.5) == (v.label == 1)).toDouble / d.size
    assert(acc > 0.9)
  }
}
