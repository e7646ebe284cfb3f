package repro.core

/** Undirected weighted graph over ER problems (paper §4.3).
  *
  * Vertices are ER problem ids; edge weights are the aggregated
  * distribution similarities sim_p. Graphs here are tiny (≤ a few
  * hundred vertices — one per ER problem), so construction and
  * clustering are driver-side.
  */
final case class ProblemGraph(nodes: IndexedSeq[String], edges: Map[(Int, Int), Double]) {
  val index: Map[String, Int] = nodes.zipWithIndex.toMap

  /** Add a vertex with the given weighted edges to existing vertices —
    * used by sel_cov when a new ER problem arrives.
    */
  def addNode(id: String, newEdges: Seq[(String, Double)]): ProblemGraph = {
    require(!index.contains(id), s"node $id already present")
    val k = nodes.size
    val added = newEdges.collect {
      case (other, w) if index.contains(other) => ((index(other), k), w)
    }
    ProblemGraph(nodes :+ id, edges ++ added)
  }
}

object ProblemGraph {

  /** How pairwise similarities become edges. The paper feeds the weighted
    * graph to Leiden without specifying sparsification; keeping every
    * edge of a near-complete graph with uniformly high sims washes out
    * modularity structure, so the default drops edges below the global
    * mean similarity (parameter-free, adapts per corpus).
    */
  sealed trait EdgePolicy
  case object AboveMean extends EdgePolicy
  final case class Threshold(t: Double) extends EdgePolicy
  case object Complete extends EdgePolicy

  /** Build the ER-problem graph from per-problem feature histograms. */
  def build(
      hists: Map[String, IndexedSeq[FeatureHistogram]],
      problemIds: Seq[String],
      test: DistTest,
      policy: EdgePolicy = AboveMean,
  ): ProblemGraph = {
    val ids = problemIds.filter(hists.contains).toIndexedSeq
    val sims = for {
      i <- ids.indices
      j <- (i + 1) until ids.size
    } yield ((i, j), DistributionAnalysis.problemSimilarity(hists(ids(i)), hists(ids(j)), test))

    val kept = policy match {
      case Complete     => sims
      case Threshold(t) => sims.filter(_._2 >= t)
      case AboveMean    =>
        if (sims.isEmpty) sims
        else { val m = sims.map(_._2).sum / sims.size; sims.filter(_._2 >= m) }
    }
    ProblemGraph(ids, kept.toMap)
  }
}
