package repro.core

import scala.collection.mutable
import scala.util.Random

/** How the ER-problem graph is partitioned into clusters (paper §4.3):
  * Leiden, or label propagation as the alternative the paper tested.
  */
sealed trait ClusterAlgo {
  /** A community id (0-based, contiguous) per node of `g`. */
  def cluster(g: ProblemGraph, seed: Long): Array[Int]
}

object ClusterAlgo {
  case object Leiden extends ClusterAlgo {
    def cluster(g: ProblemGraph, seed: Long): Array[Int] =
      repro.core.Leiden.cluster(g.nodes.size, g.edges, seed = seed)
  }
  case object LabelPropagation extends ClusterAlgo {
    def cluster(g: ProblemGraph, seed: Long): Array[Int] =
      repro.core.Leiden.labelPropagation(g.nodes.size, g.edges, seed = seed)
  }
}

/** Leiden community detection (Traag, Waltman & van Eck 2019) on small
  * weighted graphs, plus weighted label propagation as the alternative
  * the paper mentions. Implements the three Leiden phases — local
  * moving, refinement within communities, and aggregation — iterated to
  * a fixed point. Deterministic in the seed.
  *
  * Scale note: ER-problem graphs have one node per ER problem (≤ 276 in
  * the paper's largest corpus), so a driver-side implementation is the
  * right tool; the algorithm itself is the paper's choice for
  * scalability in the repository-size dimension.
  */
object Leiden {

  /** Internal mutable view of a weighted graph at one aggregation level. */
  private final class G(val n: Int, val adj: Array[mutable.ArrayBuffer[(Int, Double)]],
                        val selfLoop: Array[Double]) {
    val degree: Array[Double] = Array.tabulate(n) { i =>
      adj(i).map(_._2).sum + 2.0 * selfLoop(i)
    }
    val m2: Double = degree.sum // = 2m
  }

  private def toG(n: Int, edges: Iterable[((Int, Int), Double)]): G = {
    val adj = Array.fill(n)(mutable.ArrayBuffer.empty[(Int, Double)])
    val self = new Array[Double](n)
    edges.foreach { case ((i, j), w) =>
      if (i == j) self(i) += w
      else { adj(i) += ((j, w)); adj(j) += ((i, w)) }
    }
    new G(n, adj, self)
  }

  /** One round of greedy modularity local moving, optionally constrained
    * so a node may only join communities inside its `parent` community
    * (the Leiden refinement constraint). Returns true if anything moved.
    */
  private def localMove(g: G, comm: Array[Int], parent: Option[Array[Int]],
                        resolution: Double, rng: Random): Boolean = {
    if (g.m2 <= 0) return false
    val commTot = new Array[Double](g.n)
    for (i <- 0 until g.n) commTot(comm(i)) += g.degree(i)
    var moved = false
    var changedInPass = true
    var passes = 0
    while (changedInPass && passes < 20) {
      changedInPass = false
      passes += 1
      val order = rng.shuffle((0 until g.n).toVector)
      for (i <- order) {
        val cur = comm(i)
        commTot(cur) -= g.degree(i)
        // weights from i into each neighboring community
        val toComm = mutable.Map.empty[Int, Double].withDefaultValue(0.0)
        toComm(cur) += 0.0
        g.adj(i).foreach { case (j, w) =>
          if (parent.forall(p => p(j) == p(i))) toComm(comm(j)) += w
        }
        var bestC = cur
        var bestGain = toComm(cur) - resolution * g.degree(i) * commTot(cur) / g.m2
        toComm.foreach { case (c, kin) =>
          val gain = kin - resolution * g.degree(i) * commTot(c) / g.m2
          if (gain > bestGain + 1e-12) { bestGain = gain; bestC = c }
        }
        if (bestC != cur) { comm(i) = bestC; moved = true; changedInPass = true }
        commTot(comm(i)) += g.degree(i)
      }
    }
    moved
  }

  private def renumber(comm: Array[Int]): (Array[Int], Int) = {
    val map = mutable.Map.empty[Int, Int]
    val out = comm.map(c => map.getOrElseUpdate(c, map.size))
    (out, map.size)
  }

  /** Cluster `n` nodes with the given undirected weighted edges.
    * Returns a community id (0-based, contiguous) per node.
    */
  def cluster(
      n: Int,
      edges: Iterable[((Int, Int), Double)],
      seed: Long = 0L,
      resolution: Double = 1.0,
      maxLevels: Int = 10,
  ): Array[Int] = {
    if (n == 0) return Array.empty
    val rng = new Random(seed)
    // community assignment of every ORIGINAL node
    var nodeComm = Array.tabulate(n)(identity)
    var g = toG(n, edges)
    // mapping original node -> current super-node
    var superOf = Array.tabulate(n)(identity)
    var level = 0
    var improved = true
    while (improved && level < maxLevels) {
      val comm = Array.tabulate(g.n)(identity)
      improved = localMove(g, comm, None, resolution, rng)
      // Refinement: within each local-move community, re-partition from
      // singletons with moves constrained to the parent community.
      val refined = Array.tabulate(g.n)(identity) // start from singletons
      localMove(g, refined, Some(comm), resolution, rng)
      val (refinedC, nRefined) = renumber(refined)
      // Each original node's community label follows its super-node.
      nodeComm = superOf.map(s => refinedC(s))
      if (improved && nRefined < g.n) {
        // Aggregate on the refined partition.
        val aggEdges = mutable.Map.empty[(Int, Int), Double].withDefaultValue(0.0)
        for (i <- 0 until g.n) {
          val ci = refinedC(i)
          aggEdges((ci, ci)) += g.selfLoop(i)
          g.adj(i).foreach { case (j, w) =>
            if (i < j) {
              val cj = refinedC(j)
              val key = if (ci <= cj) (ci, cj) else (cj, ci)
              aggEdges(key) += w
            }
          }
        }
        g = toG(nRefined, aggEdges)
        superOf = nodeComm.clone()
        level += 1
      } else improved = false
    }
    renumber(nodeComm)._1
  }

  /** Weighted label propagation — the alternative clustering the paper
    * tested (similar results). Each node adopts the weighted-majority
    * label among neighbors until stable.
    */
  def labelPropagation(
      n: Int,
      edges: Iterable[((Int, Int), Double)],
      seed: Long = 0L,
      maxIters: Int = 50,
  ): Array[Int] = {
    val g = toG(n, edges)
    val rng = new Random(seed)
    val label = Array.tabulate(n)(identity)
    var changed = true
    var it = 0
    while (changed && it < maxIters) {
      changed = false
      it += 1
      for (i <- rng.shuffle((0 until n).toVector)) {
        if (g.adj(i).nonEmpty) {
          val votes = mutable.Map.empty[Int, Double].withDefaultValue(0.0)
          g.adj(i).foreach { case (j, w) => votes(label(j)) += w }
          val best = votes.maxBy { case (l, w) => (w, -l) }._1
          if (best != label(i) && votes(best) > votes(label(i))) {
            label(i) = best; changed = true
          }
        }
      }
    }
    renumber(label)._1
  }
}
