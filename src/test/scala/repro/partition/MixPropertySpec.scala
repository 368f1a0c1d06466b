package repro.partition

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck-generator-driven properties of the shared deterministic
  * hashes and stream orders (hand-rolled loop; the scalatest-scalacheck
  * bridge artifact is not available offline).
  */
class MixPropertySpec extends AnyFunSuite {

  private val vids = Gen.chooseNum(0L, 10_000_000L)
  private val seeds = Gen.chooseNum(0L, 1000L)
  private val ks = Gen.oneOf(1, 2, 4, 8, 16, 32, 64)

  private def sample[A](g: Gen[A], i: Int): A =
    g.pureApply(Gen.Parameters.default, Seed(i.toLong))

  private def forAllCases(f: (Long, Long, Int) => Unit): Unit =
    (0 until 300).foreach { i =>
      f(sample(vids, i), sample(seeds, i + 1000), sample(ks, i + 2000))
    }

  test("Mix.vertex stays in [0, k)") {
    forAllCases { (v, s, k) =>
      val p = Mix.vertex(v, s, k)
      assert(p >= 0 && p < k, s"v=$v s=$s k=$k -> $p")
    }
  }

  test("Mix.edge stays in [0, k)") {
    forAllCases { (v, s, k) =>
      val w = sample(vids, (v % 100).toInt + 5000)
      val p = Mix.edge(v, w, s, k)
      assert(p >= 0 && p < k, s"v=$v w=$w s=$s k=$k -> $p")
    }
  }

  test("Mix.vertex is deterministic") {
    forAllCases { (v, s, k) => assert(Mix.vertex(v, s, k) === Mix.vertex(v, s, k)) }
  }

  test("Mix hashes differ across seeds for most inputs") {
    val diffs = (0L until 1000L).count(v => Mix.vertex(v, 1, 32) != Mix.vertex(v, 2, 32))
    assert(diffs > 700, s"only $diffs/1000 inputs moved with the seed")
  }

  test("Mix.vertex distributes roughly uniformly over k=8") {
    val counts = (0L until 8000L).map(Mix.vertex(_, 5, 8)).groupBy(identity).view.mapValues(_.size)
    counts.values.foreach(c => assert(c > 600 && c < 1400, counts.toMap))
  }

  test("Mix.edge distributes roughly uniformly over k=16") {
    val counts = (0L until 16000L)
      .map(i => Mix.edge(i * 13 % 4001, i * 7 % 4003, 5, 16))
      .groupBy(identity).view.mapValues(_.size)
    counts.values.foreach(c => assert(c > 600 && c < 1500, counts.toMap))
  }

  test("StreamOrder is a permutation") {
    val o = StreamOrder.edgeOrder(1000, 7)
    assert(o.sorted.sameElements(Array.tabulate(1000)(identity)))
  }

  test("StreamOrder deterministic in seed, different across seeds") {
    val a = StreamOrder.edgeOrder(500, 7)
    val b = StreamOrder.edgeOrder(500, 7)
    val c = StreamOrder.edgeOrder(500, 8)
    assert(a.sameElements(b))
    assert(!a.sameElements(c))
  }
}
