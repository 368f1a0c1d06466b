package repro.amortize

import org.scalatest.funsuite.AnyFunSuite

class AmortizationSpec extends AnyFunSuite {

  test("epochs = tPart / saving") {
    assert(Amortization.epochs(10.0, 3.0, 1.0) === Some(5.0))
  }

  test("slowdown gives None") {
    assert(Amortization.epochs(10.0, 1.0, 3.0) === None)
    assert(Amortization.epochs(10.0, 1.0, 1.0) === None)
  }

  test("averageEpochs averages over amortizing configs") {
    val got = Amortization.averageEpochs(10.0, Seq((3.0, 1.0), (6.0, 1.0)))
    assert(got === Some((5.0 + 2.0) / 2))
  }

  test("averageEpochs is None when net savings are negative") {
    assert(Amortization.averageEpochs(10.0, Seq((1.0, 5.0), (3.0, 2.9))) === None)
  }

  test("averageEpochs on empty input is None") {
    assert(Amortization.averageEpochs(10.0, Seq.empty) === None)
  }

  test("overClusterSizes averages when half the cluster sizes amortize") {
    assert(Amortization.overClusterSizes(Seq(Some(2.0), None, Some(4.0), None)) === Some(3.0))
  }

  test("overClusterSizes is None when fewer than half the cluster sizes amortize") {
    assert(Amortization.overClusterSizes(Seq(None, Some(2.0), None, None)) === None)
  }

  test("overClusterSizes averages all cluster sizes when every one amortizes") {
    assert(Amortization.overClusterSizes(Seq(Some(1.0), Some(2.0), Some(3.0), Some(6.0))) === Some(3.0))
  }

  test("format renders 'no' for None and 2 decimals otherwise") {
    assert(Amortization.format(None) === "no")
    assert(Amortization.format(Some(3.14159)) === "3.14")
  }

  test("zero partitioning time amortizes immediately") {
    assert(Amortization.epochs(0.0, 2.0, 1.0) === Some(0.0))
  }
}
