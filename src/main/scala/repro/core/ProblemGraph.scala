package repro.core

/** Undirected weighted graph over ER problems (paper §4.3).
  *
  * Vertices are ER problem ids; edge weights are the aggregated
  * distribution similarities sim_p. Graphs here are tiny (≤ a few
  * hundred vertices — one per ER problem), so construction and
  * clustering are driver-side.
  *
  * @param cut the similarity an edge must reach to be kept, fixed by the
  *            build-time `EdgePolicy`; vertices added later are held to it
  */
final case class ProblemGraph(nodes: IndexedSeq[String], edges: Map[(Int, Int), Double], cut: Double) {
  val index: Map[String, Int] = nodes.zipWithIndex.toMap

  /** Add a vertex given its similarities to existing vertices — used by
    * sel_cov when a new ER problem arrives. Similarities below `cut` do
    * not become edges, so the graph stays as sparse as it was built.
    */
  def addNode(id: String, sims: Seq[(String, Double)]): ProblemGraph = {
    require(!index.contains(id), s"node $id already present")
    val k = nodes.size
    val added = sims.collect {
      case (other, w) if w >= cut && index.contains(other) => ((index(other), k), w)
    }
    copy(nodes = nodes :+ id, edges = edges ++ added)
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

    val cut = policy match {
      case Threshold(t)               => t
      case AboveMean if sims.nonEmpty => sims.map(_._2).sum / sims.size
      case _                          => Double.NegativeInfinity // Complete, or no pair to average
    }
    ProblemGraph(ids, sims.filter(_._2 >= cut).toMap, cut)
  }
}
