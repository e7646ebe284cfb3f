package repro.al

import scala.util.hashing.MurmurHash3
import repro.ml.PoolVector

/** Size and order-sensitive hash of the (problemId, recA, recB) sequence
  * an AL run selected: pins a learner's selections across refactorings.
  */
object SelectionFingerprint {
  def of(selected: IndexedSeq[PoolVector]): (Int, Int) =
    (selected.size, MurmurHash3.orderedHash(selected.map(v => (v.problemId, v.recA, v.recB))))
}
