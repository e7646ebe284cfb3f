package repro.ml

import scala.util.Random

/** One-hidden-layer feed-forward network over dense features.
  *
  * This is the neural substrate of the language-model baseline
  * simulators: Ditto/AnyMatch train it as a binary pair classifier,
  * Sudowoodo trains the same architecture as a contrastive (triplet)
  * encoder. Unlike the linear models, its per-example cost
  * (O(in·hidden)) reproduces the "neural training is the bottleneck"
  * cost shape of the original systems.
  */
final case class MLPModel(
    w1: Array[Array[Double]], // hidden × in
    b1: Array[Double],
    w2: Array[Double],        // hidden (classifier) — unused by encoders
    b2: Double,
) extends Serializable {
  /** The hidden layer's ReLU activations — the one forward pass that
    * prediction, embedding and both trainers use. An activation is > 0
    * exactly where the ReLU passes gradient.
    */
  def hiddenOf(x: Array[Double]): Array[Double] = {
    val h = new Array[Double](w1.length)
    var j = 0
    while (j < w1.length) {
      var z = b1(j); val row = w1(j); var i = 0
      while (i < x.length) { z += row(i) * x(i); i += 1 }
      h(j) = if (z > 0) z else 0.0 // ReLU
      j += 1
    }
    h
  }

  /** Sigmoid output over hidden activations `h`, with output bias `bias`. */
  private[ml] def outputProb(h: Array[Double], bias: Double): Double = {
    var z = bias; var j = 0
    while (j < h.length) { z += w2(j) * h(j); j += 1 }
    1.0 / (1.0 + math.exp(-z))
  }

  /** Sigmoid classifier output. */
  def predictProb(x: Array[Double]): Double = outputProb(hiddenOf(x), b2)
  def predict(x: Array[Double]): Int = if (predictProb(x) >= 0.5) 1 else 0

  /** L2-normalized hidden representation — the encoder embedding. */
  def embed(x: Array[Double]): Array[Double] = {
    val h = hiddenOf(x)
    val n = math.sqrt(h.map(v => v * v).sum)
    if (n > 1e-12) h.map(_ / n) else h
  }
}

object MLP {
  private val Margin = 1.0 // the triplet loss's margin
  def init(in: Int, hidden: Int, seed: Long): MLPModel = {
    val rng = new Random(seed)
    val scale = math.sqrt(2.0 / in)
    MLPModel(
      Array.fill(hidden)(Array.fill(in)((rng.nextDouble() * 2 - 1) * scale)),
      new Array[Double](hidden),
      Array.fill(hidden)((rng.nextDouble() * 2 - 1) * math.sqrt(2.0 / hidden)),
      0.0)
  }

  /** Supervised binary training with per-example SGD. */
  def fitClassifier(
      xs: IndexedSeq[Array[Double]],
      ys: IndexedSeq[Int],
      hidden: Int = 64,
      epochs: Int = 10,
      lr: Double = 0.05,
      seed: Long = 0L,
  ): MLPModel = {
    require(xs.nonEmpty && xs.size == ys.size, "invalid training data")
    val m = init(xs.head.length, hidden, seed)
    var bias = 0.0
    val rng = new Random(seed + 1)
    val idx = xs.indices.toArray
    for (e <- 0 until epochs) {
      var i = idx.length - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val t = idx(i); idx(i) = idx(j); idx(j) = t; i -= 1 }
      val step = lr / (1.0 + 0.3 * e)
      idx.foreach { k =>
        val x = xs(k); val y = ys(k)
        val h = m.hiddenOf(x)
        val p = m.outputProb(h, bias)
        val g2 = p - y
        // backward (weight arrays are mutated in place; the scalar output
        // bias is carried in the local accumulator and attached at the end)
        var j = 0
        while (j < hidden) {
          val gh = if (h(j) > 0) m.w2(j) * g2 else 0.0
          m.w2(j) -= step * g2 * h(j)
          if (gh != 0.0) {
            val row = m.w1(j); var t = 0
            while (t < x.length) { row(t) -= step * gh * x(t); t += 1 }
            m.b1(j) -= step * gh
          }
          j += 1
        }
        bias -= step * g2
      }
    }
    m.copy(b2 = bias)
  }

  /** Contrastive triplet training of the encoder: pull (anchor,
    * positive) embeddings together, push (anchor, negative) apart, with
    * squared-distance margin loss on the (unnormalized) hidden layer.
    * Triplets are provided by the caller (augmentation policy lives
    * with the simulator).
    */
  def fitEncoder(
      triplets: Iterator[(Array[Double], Array[Double], Array[Double])],
      in: Int,
      hidden: Int = 32,
      lr: Double = 0.01,
      seed: Long = 0L,
  ): MLPModel = {
    val m = init(in, hidden, seed)

    def backward(x: Array[Double], h: Array[Double], grad: Array[Double], step: Double): Unit = {
      var j = 0
      while (j < hidden) {
        if (h(j) > 0 && grad(j) != 0.0) {
          val row = m.w1(j); var t = 0
          while (t < x.length) { row(t) -= step * grad(j) * x(t); t += 1 }
          m.b1(j) -= step * grad(j)
        }
        j += 1
      }
    }

    triplets.foreach { case (a, p, n) =>
      val ha = m.hiddenOf(a)
      val hp = m.hiddenOf(p)
      val hn = m.hiddenOf(n)
      var dPos = 0.0; var dNeg = 0.0
      var j = 0
      while (j < hidden) {
        val dp = ha(j) - hp(j); dPos += dp * dp
        val dn = ha(j) - hn(j); dNeg += dn * dn
        j += 1
      }
      if (Margin + dPos - dNeg > 0) {
        val ga = new Array[Double](hidden)
        val gp = new Array[Double](hidden)
        val gn = new Array[Double](hidden)
        j = 0
        while (j < hidden) {
          ga(j) = 2 * (hn(j) - hp(j))
          gp(j) = -2 * (ha(j) - hp(j))
          gn(j) = 2 * (ha(j) - hn(j))
          j += 1
        }
        backward(a, ha, ga, lr)
        backward(p, hp, gp, lr)
        backward(n, hn, gn, lr)
      }
    }
    m
  }
}
