package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class LeidenSpec extends AnyFunSuite {

  private type Edges = Seq[((Int, Int), Double)]

  /** Two dense cliques joined by one weak edge. */
  private def twoCliques(k: Int = 5, bridge: Double = 0.05): (Int, Seq[((Int, Int), Double)]) = {
    val edges =
      (for { i <- 0 until k; j <- (i + 1) until k } yield ((i, j), 1.0)) ++
      (for { i <- k until 2 * k; j <- (i + 1) until 2 * k } yield ((i, j), 1.0)) ++
      Seq(((0, k), bridge))
    (2 * k, edges)
  }

  test("two cliques are separated into two communities") {
    val (n, e) = twoCliques()
    val c = Leiden.cluster(n, e, seed = 1)
    assert(c.distinct.length == 2)
    assert(c.slice(0, 5).distinct.length == 1)
    assert(c.slice(5, 10).distinct.length == 1)
    assert(c(0) != c(5))
  }

  test("clustering is deterministic in the seed") {
    val (n, e) = twoCliques()
    assert(Leiden.cluster(n, e, seed = 3).toSeq == Leiden.cluster(n, e, seed = 3).toSeq)
  }

  test("empty graph clusters to nothing") {
    assert(Leiden.cluster(0, Nil).isEmpty)
  }

  test("isolated nodes become singleton communities") {
    val c = Leiden.cluster(3, Nil, seed = 1)
    assert(c.distinct.length == 3)
  }

  test("single edge groups its endpoints") {
    val c = Leiden.cluster(3, Seq(((0, 1), 1.0)), seed = 1)
    assert(c(0) == c(1))
    assert(c(2) != c(0))
  }

  test("community ids are contiguous from 0") {
    val (n, e) = twoCliques()
    val c = Leiden.cluster(n, e, seed = 2)
    assert(c.distinct.sorted.toSeq == (0 until c.distinct.length))
  }

  test("three cliques yield three communities") {
    val k = 4
    val edges = (for {
      block <- 0 until 3
      i <- 0 until k; j <- (i + 1) until k
    } yield ((block * k + i, block * k + j), 1.0)) ++
      Seq(((0, k), 0.02), ((k, 2 * k), 0.02))
    val c = Leiden.cluster(3 * k, edges, seed = 1)
    assert(c.distinct.length == 3)
  }

  test("strongly-weighted bridge merges the cliques") {
    // bridge weight comparable to intra-clique edges on a small graph
    val edges = Seq(((0, 1), 1.0), ((2, 3), 1.0), ((1, 2), 1.0), ((0, 3), 1.0), ((0, 2), 1.0), ((1, 3), 1.0))
    val c = Leiden.cluster(4, edges, seed = 1)
    assert(c.distinct.length == 1) // complete graph = one community
  }

  test("weighted label propagation separates two cliques") {
    val (n, e) = twoCliques()
    val c = Leiden.labelPropagation(n, e, seed = 1)
    assert(c(0) == c(4) && c(5) == c(9) && c(0) != c(5))
  }

  test("label propagation is deterministic in the seed") {
    val (n, e) = twoCliques(k = 6)
    assert(Leiden.labelPropagation(n, e, seed = 9).toSeq ==
           Leiden.labelPropagation(n, e, seed = 9).toSeq)
  }

  test("weights matter: a node attaches to its heavier neighbor clique") {
    // node 4 linked weakly to clique {0,1}, strongly to clique {2,3}
    val edges = Seq(((0, 1), 1.0), ((2, 3), 1.0), ((4, 0), 0.1), ((4, 2), 1.0))
    val c = Leiden.cluster(5, edges, seed = 1)
    assert(c(4) == c(2))
  }

  test("self-contained star graph stays one community") {
    val edges = (1 to 5).map(i => ((0, i), 1.0))
    val c = Leiden.cluster(6, edges, seed = 1)
    assert(c.distinct.length == 1)
  }

  /** Random undirected graphs of 2–40 nodes, each node pair joined with a
    * per-graph probability by an edge of weight in [0.01, 1].
    */
  private val weightedGraphs: Gen[(Int, Edges)] = for {
    n       <- Gen.choose(2, 40)
    density <- Gen.choose(0.0, 1.0)
    pairs    = for (i <- 0 until n; j <- i + 1 until n) yield (i, j)
    draws   <- Gen.listOfN(pairs.size, Gen.zip(Gen.choose(0.0, 1.0), Gen.choose(0.01, 1.0)))
  } yield (n, pairs.zip(draws).collect { case (e, (u, w)) if u < density => e -> w })

  /** Newman modularity (resolution 1) of `comm`; 0 on a graph without edges. */
  private def modularity(n: Int, edges: Edges, comm: Array[Int]): Double = {
    val degree = new Array[Double](n)
    edges.foreach { case ((i, j), w) => degree(i) += w; degree(j) += w }
    val m2 = degree.sum
    if (m2 == 0) return 0.0
    val inside = edges.collect { case ((i, j), w) if comm(i) == comm(j) => 2 * w }.sum
    val tot = degree.indices.groupMapReduce(comm(_))(degree(_))(_ + _)
    inside / m2 - tot.values.map(t => (t / m2) * (t / m2)).sum
  }

  /** True when the members of every community reach each other over
    * edges inside that community.
    */
  private def communitiesConnected(n: Int, edges: Edges, comm: Array[Int]): Boolean = {
    val adj = Array.fill(n)(List.empty[Int])
    edges.foreach { case ((i, j), _) => if (comm(i) == comm(j)) { adj(i) ::= j; adj(j) ::= i } }
    (0 until n).groupBy(comm(_)).values.forall { members =>
      val seen = scala.collection.mutable.Set(members.head)
      var frontier = List(members.head)
      while (frontier.nonEmpty) frontier = frontier.flatMap(adj(_)).filter(seen.add)
      seen.size == members.size
    }
  }

  private def check(name: String)(prop: (Int, Edges, Long) => Boolean): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20190326L))
    val res = Test.check(params, Prop.forAll(weightedGraphs, Gen.choose(0L, 1000L)) {
      case ((n, edges), seed) => prop(n, edges, seed)
    })
    assert(res.passed, s"$name: ${res.status}")
  }

  test("property: modularity is never below that of the all-singletons partition") {
    check("modularity") { (n, edges, seed) =>
      modularity(n, edges, Leiden.cluster(n, edges, seed)) >=
        modularity(n, edges, Array.tabulate(n)(identity)) - 1e-9
    }
  }

  test("property: every community is connected in its induced subgraph") {
    check("connected") { (n, edges, seed) => communitiesConnected(n, edges, Leiden.cluster(n, edges, seed)) }
  }

  test("property: clustering is deterministic in the seed") {
    check("deterministic") { (n, edges, seed) =>
      Leiden.cluster(n, edges, seed).toSeq == Leiden.cluster(n, edges, seed).toSeq
    }
  }
}
