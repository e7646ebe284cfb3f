package repro.al

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable
import repro.ml.{LabeledVector, PoolVector, RandomForest}

/** Simplified reimplementation of Almser (Primpeli & Bizer 2021) —
  * graph-boosted AL for multi-source ER (see DESIGN.md §3 for the
  * substitution rationale).
  *
  * Per iteration it (1) trains the main bagged committee on the labeled
  * pairs plus — as in the original — one small model **per ER task** in
  * the pool (the task-ensemble whose vote disagreement is an Almser
  * signal), (2) classifies the whole pool with all of them (in-process,
  * in parallel over the vectors `ActiveLearner.selectByScore` collected
  * once), (3) builds the predicted-match similarity graph and analyzes
  * it on the driver — connected components give transitive-closure
  * evidence (a pair predicted non-match inside one component is a
  * potential false negative), bridge edges are the min-cut proxy (a
  * predicted match whose edge disconnects its component is a potential
  * false positive) — and (4) selects the pairs where graph or
  * task-ensemble evidence and the classifier disagree, breaking ties by
  * committee uncertainty.
  *
  * The per-iteration cost therefore scales with the number of ER tasks
  * in the pool (model fits + ensemble scoring) and with the graph size —
  * exactly why standalone Almser over all tasks is expensive and why
  * MoRER's clustering (small per-cluster task sets) speeds it up, the
  * cost shape the paper reports.
  */
object AlmserAL extends ActiveLearner {
  val name = "Almser"

  /** Union-find with path compression. */
  private final class UF {
    private val parent = mutable.LongMap.empty[Long]
    def find(x: Long): Long = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent.getOrElse(r, r)
      var c = x
      while (parent.getOrElse(c, c) != c) { val n = parent.getOrElse(c, c); parent(c) = r; c = n }
      r
    }
    def union(a: Long, b: Long): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(ra) = rb
    }
  }

  /** Bridge edges of an undirected graph (iterative Tarjan low-link). */
  private[al] def bridges(edges: Seq[(Long, Long)]): Set[(Long, Long)] = {
    val adj = mutable.LongMap.empty[mutable.ArrayBuffer[(Long, Int)]]
    edges.zipWithIndex.foreach { case ((a, b), i) =>
      adj.getOrElseUpdate(a, mutable.ArrayBuffer.empty) += ((b, i))
      adj.getOrElseUpdate(b, mutable.ArrayBuffer.empty) += ((a, i))
    }
    val disc = mutable.LongMap.empty[Int]
    val low  = mutable.LongMap.empty[Int]
    val out  = mutable.Set.empty[(Long, Long)]
    var time = 0
    for (start <- adj.keys if !disc.contains(start)) {
      // frame: (node, incoming edge id, child iterator index)
      val stack = mutable.Stack[(Long, Int)]()
      val iterIdx = mutable.LongMap.empty[Int]
      disc(start) = time; low(start) = time; time += 1
      stack.push((start, -1))
      while (stack.nonEmpty) {
        val (u, inEdge) = stack.top
        val neighbors = adj(u)
        val i = iterIdx.getOrElse(u, 0)
        if (i < neighbors.size) {
          iterIdx(u) = i + 1
          val (v, eid) = neighbors(i)
          if (eid != inEdge) {
            if (!disc.contains(v)) {
              disc(v) = time; low(v) = time; time += 1
              stack.push((v, eid))
            } else low(u) = math.min(low(u), disc(v))
          }
        } else {
          stack.pop()
          if (stack.nonEmpty) {
            val (p, _) = stack.top
            low(p) = math.min(low(p), low(u))
            if (low(u) > disc(p)) {
              val (a, b) = edges(inEdge)
              out += ((math.min(a, b), math.max(a, b)))
            }
          }
        }
      }
    }
    out.toSet
  }

  def select(
      spark: SparkSession,
      pool: DataFrame,
      budget: Int,
      cfg: ALConfig,
      idf: Map[Long, Double],
      seed: Long,
  ): IndexedSeq[PoolVector] = ActiveLearner.selectByScore(pool, budget, cfg) { (vectors, labeled, iter) =>
    val problemIds = vectors.map(_.problemId).distinct.sorted
    val train  = labeled.map(v => LabeledVector(v.features, v.oracleLabel))
    val forest = RandomForest.fit(train, numTrees = math.max(10, cfg.kModels / 2),
      maxDepth = 6, seed = seed * 17 + iter)
    // Task ensemble: one small model per ER task, trained on the task's
    // own labels where both classes are present, else on all labels.
    // Task models are full bagged forests, as in the original (ALMSER
    // uses 100-tree random forests) — their per-iteration training and
    // scoring cost is what scales with the number of ER tasks.
    val byProblem = labeled.groupBy(_.problemId)
    val taskForests = problemIds.zipWithIndex.map { case (pid, i) =>
      val tv = byProblem.getOrElse(pid, IndexedSeq.empty)
        .map(v => LabeledVector(v.features, v.oracleLabel))
      val data = if (tv.map(_.label).distinct.size == 2) tv.toIndexedSeq else train
      RandomForest.fit(data, numTrees = math.max(5, cfg.kModels / 2), maxDepth = 6,
        seed = seed * 13 + iter * 131 + i)
    }

    // Pass 1: classify the pool (main committee + task-ensemble vote),
    // pull the predicted-match edge list.
    val vote = ActiveLearner.scoreEach(vectors.size)(i => forest.voteFraction(vectors(i).features))
    val taskVote = ActiveLearner.scoreEach(vectors.size) { i =>
      val x = vectors(i).features
      var votes = 0; var t = 0
      while (t < taskForests.size) { votes += taskForests(t).predict(x); t += 1 }
      votes.toDouble / taskForests.size
    }
    val matchEdges = vectors.indices.collect { case i if vote(i) >= 0.5 =>
      (vectors(i).recA, vectors(i).recB) }

    // Driver graph analysis: components (transitive closure) + bridges.
    val uf = new UF
    matchEdges.foreach { case (a, b) => uf.union(a, b) }
    val compOf: Map[Long, Long] =
      matchEdges.flatMap { case (a, b) => Seq(a, b) }.distinct.map(r => r -> uf.find(r)).toMap
    val bridgeSet = bridges(matchEdges.distinct)

    // Pass 2: graph/task-ensemble disagreement first, uncertainty second.
    ActiveLearner.scoreEach(vectors.size) { i =>
      val v = vectors(i)
      val pred = vote(i) >= 0.5
      val sameComp = (for { ca <- compOf.get(v.recA); cb <- compOf.get(v.recB) }
        yield ca == cb).getOrElse(false)
      val edge = (math.min(v.recA, v.recB), math.max(v.recA, v.recB))
      val conflict =
        (!pred && sameComp) ||                       // potential false negative
        (pred && bridgeSet.contains(edge))           // potential false positive (bridge)
      val unc = vote(i) * (1.0 - vote(i))
      val taskDis = taskVote(i) * (1.0 - taskVote(i)) // task-ensemble disagreement
      val s   = ActiveLearner.pairScore(idf, v.recA, v.recB)
      (if (conflict) 1.0 else 0.0) + taskDis + unc * (1.0 + s)
    }
  }
}
