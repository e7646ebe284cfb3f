package repro.core

/** Labeling-budget distribution across ER-problem clusters
  * (paper §4.4, Eqs. 4–9).
  */
object Budget {

  /** One cluster's bookkeeping for budget allocation.
    *
    * @param totalVectors  C^i_{|tot} — number of similarity feature
    *                      vectors across all ER problems of the cluster
    *                      (Eq. 8)
    */
  final case class ClusterInfo(id: Int, problemIds: Seq[String], totalVectors: Long) {
    def isSingleton: Boolean = problemIds.size == 1
  }

  /** Eq. 4: the total budget cannot give every cluster its minimum —
    * singletons must be merged into non-singleton clusters first.
    */
  def needsMerge(numClusters: Int, bTot: Int, bMin: Int): Boolean =
    numClusters.toLong * bMin > bTot

  /** Eqs. 5–9. Every cluster gets b_min plus a share of the remaining
    * budget b_rem; the remainder is first split between the non-singleton
    * and singleton cluster groups proportionally to their ER-problem
    * counts (Eqs. 6–7), then within each group proportionally to the
    * clusters' vector counts (Eq. 9). Budgets are capped at the cluster's
    * pool size (cannot label more pairs than exist).
    *
    * Each cluster's share of b_rem is floored, and the remainder is not
    * handed out: when no cluster is capped by its pool, the budgets sum to
    * more than b_tot − #clusters and at most b_tot. So a build over 3
    * clusters at b_tot = 500 can spend 499 labels.
    */
  def distribute(clusters: Seq[ClusterInfo], bTot: Int, bMin: Int): Map[Int, Int] = {
    require(clusters.nonEmpty, "no clusters to distribute budget over")
    require(!needsMerge(clusters.size, bTot, bMin),
      s"budget $bTot cannot cover ${clusters.size} clusters at b_min=$bMin — merge singletons first")

    val totalProblems = clusters.map(_.problemIds.size).sum.toDouble
    val ns = clusters.filterNot(_.isSingleton)
    val s  = clusters.filter(_.isSingleton)
    val bRem = (bTot - bMin.toLong * clusters.size).toDouble
    val ratioNs = ns.map(_.problemIds.size).sum / totalProblems
    val ratioS  = s.map(_.problemIds.size).sum / totalProblems

    def group(cs: Seq[ClusterInfo], ratio: Double): Map[Int, Int] = {
      if (cs.isEmpty) return Map.empty
      val tot = cs.map(_.totalVectors).sum.toDouble
      cs.map { c =>
        val share =
          if (tot > 0) c.totalVectors / tot
          else 1.0 / cs.size
        val b = bMin + (share * bRem * ratio).toInt
        c.id -> math.min(b.toLong, c.totalVectors).toInt
      }.toMap
    }
    group(ns, ratioNs) ++ group(s, ratioS)
  }

  /** Singleton-merge step used when Eq. 4 holds: each singleton cluster
    * is absorbed into the non-singleton cluster it is most similar to
    * (by the provided cluster-similarity function). If there are no
    * non-singleton clusters, all singletons merge into one cluster.
    */
  def mergeSingletons(
      clusters: Seq[ClusterInfo],
      simToCluster: (ClusterInfo, ClusterInfo) => Double,
  ): Seq[ClusterInfo] = {
    val ns = clusters.filterNot(_.isSingleton)
    val s  = clusters.filter(_.isSingleton)
    if (s.isEmpty) return clusters
    if (ns.isEmpty) {
      // no host clusters: fuse all singletons into one
      return Seq(ClusterInfo(s.head.id, s.flatMap(_.problemIds), s.map(_.totalVectors).sum))
    }
    val merged = scala.collection.mutable.Map(ns.map(c => c.id -> c).toSeq: _*)
    s.foreach { single =>
      val host = ns.maxBy(c => simToCluster(single, c))
      val cur  = merged(host.id)
      merged(host.id) = cur.copy(
        problemIds = cur.problemIds ++ single.problemIds,
        totalVectors = cur.totalVectors + single.totalVectors)
    }
    ns.map(c => merged(c.id))
  }
}
