package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ProblemGraphSpec extends AnyFunSuite {

  private def point(id: String, bin: Int, nBins: Int = 4): IndexedSeq[FeatureHistogram] = {
    val bins = Array.fill(nBins)(0L); bins(bin) = 100L
    IndexedSeq(FeatureHistogram(id, 0, bins, 100, bin.toDouble / nBins, 0.25))
  }

  private val hists = Map(
    "a" -> point("a", 0), "b" -> point("b", 0),
    "c" -> point("c", 3), "d" -> point("d", 3))

  test("complete policy keeps all problem pairs as edges") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS, ProblemGraph.Complete)
    assert(g.edges.size == 6)
  }

  test("above-mean policy drops dissimilar edges") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS)
    // a-b and c-d are identical-distribution pairs; cross pairs are not
    assert(g.edges.contains((0, 1)))
    assert(g.edges.contains((2, 3)))
    assert(!g.edges.contains((0, 2)))
  }

  test("threshold policy keeps edges above the threshold") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS, ProblemGraph.Threshold(0.99))
    assert(g.edges.size == 2)
  }

  test("edge weights are the aggregated problem similarities") {
    val g = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Complete)
    val expected = DistributionAnalysis.problemSimilarity(hists("a"), hists("b"), KS)
    assert(math.abs(g.edges((0, 1)) - expected) < 1e-12)
  }

  test("problems without histograms are skipped") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "zz"), KS, ProblemGraph.Complete)
    assert(g.nodes.toSet == Set("a", "b"))
  }

  test("each edge is keyed once, lower node index first") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS, ProblemGraph.Complete)
    assert(g.edges.keySet == (for (i <- 0 until 4; j <- i + 1 until 4) yield (i, j)).toSet)
  }

  test("addNode appends a vertex with its edges") {
    val g = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Complete)
    val g2 = g.addNode("e", Seq("a" -> 0.9))
    assert(g2.nodes.last == "e")
    assert(g2.edges.get((0, 2)).contains(0.9))
    assert(!g2.edges.contains((1, 2)))
  }

  test("addNode holds a new problem's edges to the build-time above-mean cut") {
    // sims: a-b and c-d are 1, the four cross pairs 0; the build-time mean
    // is 1/3 while the kept edges average 1
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS)
    assert(math.abs(g.cut - 1.0 / 3) < 1e-12)
    val g2 = g.addNode("e", Seq("a" -> 0.5, "c" -> 0.2))
    assert(g2.edges.removedAll(g.edges.keys) == Map((0, 4) -> 0.5))
  }

  test("addNode keeps the cut of every edge policy") {
    val complete = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Complete)
    assert(complete.addNode("e", Seq("a" -> 0.0)).edges.contains((0, 2)))
    val threshold = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Threshold(0.6))
    val g2 = threshold.addNode("e", Seq("a" -> 0.6, "b" -> 0.59))
    assert(g2.edges.contains((0, 2)) && !g2.edges.contains((1, 2)))
  }

  test("addNode rejects duplicates and unknown edge targets are dropped") {
    val g = ProblemGraph.build(hists, Seq("a", "b"), KS, ProblemGraph.Complete)
    assertThrows[IllegalArgumentException](g.addNode("a", Nil))
    val g2 = g.addNode("e", Seq("ghost" -> 0.5))
    assert(g2.edges.size == g.edges.size)
  }

  test("addNode keys each new edge from the existing node to the new one") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c"), KS, ProblemGraph.Complete)
    val g2 = g.addNode("e", Seq("c" -> 0.7, "a" -> 0.9))
    assert(g2.edges.removedAll(g.edges.keys) == Map((2, 3) -> 0.7, (0, 3) -> 0.9))
  }

  test("clustering the built graph groups identical-distribution problems") {
    val g = ProblemGraph.build(hists, Seq("a", "b", "c", "d"), KS)
    val c = Leiden.cluster(g.nodes.size, g.edges, seed = 1)
    val byId = g.nodes.zip(c).toMap
    assert(byId("a") == byId("b"))
    assert(byId("c") == byId("d"))
    assert(byId("a") != byId("c"))
  }
}
