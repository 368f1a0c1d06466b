package repro.partition

import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import repro.graph.{CompactGraph, GraphOps}
import repro.{SparkSpec, TestGraphs}

/** Golden outputs: one SHA-256 per partitioner over its `part` arrays and
  * `PartitionCost` on the three test graphs at k ∈ {4, 32}, seed 7. A
  * change that means to alter a partitioner's output updates its constant
  * here and says why in CHANGES.md.
  */
class PartitionerGoldenSpec extends SparkSpec {

  /** Keyed by cut type and name, since both Random baselines are "Random". */
  private val golden = Map(
    "vertex-cut Random" ->
      "282ea522c6d02fcf8143688e2520e83130a6d1c321f7fd24350f344c2014907c",
    "vertex-cut DBH" ->
      "840e709a99a72000cbe54bef5cd2ade19983a5e0c76fbac17148bf8353ef140a",
    "vertex-cut HDRF" ->
      "933c332f31b0986cd8df6e7f4c975fa1c23f83d249147b4102be2f19ad374bbb",
    "vertex-cut 2PS-L" ->
      "7ba1fa4b6f1b483d3ec81a8858355d59fa16a85792822abcacd53772bd19c861",
    "vertex-cut HEP10" ->
      "a6e5e5f12bbb9b080d4c572f96a67bdfcfd8e48317aff7b808b9fe290211b892",
    "vertex-cut HEP100" ->
      "175ff6ff092154c7c782d112ac9cfab91230c7007d79e0cf3bdb2d46ecee20d1",
    "edge-cut Random" ->
      "4f8a0e2c7594a3df6d202b7636f4c561a0175f11dfdef386acd7ee4765b97cf8",
    "edge-cut LDG" ->
      "ffd5729f8ee9f5628bfef14423da97d3bfbff0d3bba268bab5994e711a2beb3c",
    "edge-cut Spinner" ->
      "c3cca1c3563e498a8f2a54ac0bcb2594f9d99f99fa872087f446a7d977339732",
    "edge-cut Metis" ->
      "603530ec157c026a250a9d212804d99f437d881ed846d338942c0691abd969f3",
    "edge-cut ByteGNN" ->
      "f18ec65f82c6cfbd0eadeb7551722095a6e8bb8f5811e4836aeb9978817d6e13",
    "edge-cut KaHIP" ->
      "dc2c3ef8dcd8bbabc477bebc07ba00a8f7e3af415ac5db25869823b5e0d76f1c",
  )

  private val ks = Seq(4, 32)
  private val seed = 7L

  /** The test graphs with their edges sorted by `(src, dst)`, so a digest
    * depends neither on Spark's row order nor on the core count.
    */
  private lazy val graphs = TestGraphs.all(spark).map { case (_, g, cg) =>
    val order = cg.src.indices.sortBy(i => (cg.src(i), cg.dst(i)))
    val sorted = new CompactGraph(cg.numVertices, order.map(cg.src).toArray, order.map(cg.dst).toArray, cg.directed)
    (sorted, GraphOps.trainMask(g, spark))
  }

  private def check(name: String, runs: Seq[(Array[Int], PartitionCost)]): Unit = {
    val md = MessageDigest.getInstance("SHA-256")
    for ((part, cost) <- runs) {
      val buf = ByteBuffer.allocate(4 * part.length)
      part.foreach(buf.putInt)
      md.update(buf.array())
      md.update(cost.toString.getBytes(UTF_8))
    }
    val digest = md.digest().map(b => f"$b%02x").mkString
    assert(digest == golden(name), s"$name: new digest $digest")
  }

  for (p <- Partitioners.edgePartitioners) test(s"vertex-cut ${p.name}: golden assignments and op counts") {
    check(s"vertex-cut ${p.name}", for ((cg, _) <- graphs; k <- ks) yield {
      val r = p.partition(cg, k, seed)
      (r.part, r.cost)
    })
  }

  for (p <- Partitioners.vertexPartitioners) test(s"edge-cut ${p.name}: golden assignments and op counts") {
    check(s"edge-cut ${p.name}", for ((cg, mask) <- graphs; k <- ks) yield {
      val r = p.partition(cg, k, mask, seed)
      (r.part, r.cost)
    })
  }
}
