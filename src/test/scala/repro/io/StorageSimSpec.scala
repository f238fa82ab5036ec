package repro.io

import org.scalatest.funsuite.AnyFunSuite

class StorageSimSpec extends AnyFunSuite {

  // 100 MB of memory, 100 MB/s of disk.
  val sim = StorageSim(100L * 1024 * 1024, 100.0 * 1024 * 1024)

  test("fits honors the budget boundary") {
    assert(sim.fits(100L * 1024 * 1024))
    assert(!sim.fits(100L * 1024 * 1024 + 1))
  }

  test("in-memory datasets pay only the initial load") {
    val bytes = 50L * 1024 * 1024
    assert(sim.perEpochIoSeconds(bytes) == 0.0)
    assert(math.abs(sim.initialLoadSeconds(bytes) - 0.5) < 1e-9)
    assert(math.abs(sim.totalIoSeconds(bytes, 10) - 0.5) < 1e-9)
  }

  test("out-of-core datasets stream every epoch") {
    val bytes = 200L * 1024 * 1024
    assert(math.abs(sim.perEpochIoSeconds(bytes) - 2.0) < 1e-9)
    assert(math.abs(sim.totalIoSeconds(bytes, 10) - 22.0) < 1e-9) // load + 10 epochs
  }

  test("the paper's Figure 1D shape: IO dominates once spilled") {
    // Same compute either side of the boundary; total time jumps sharply.
    val fitting = sim.totalIoSeconds(90L * 1024 * 1024, 10)
    val spilled = sim.totalIoSeconds(110L * 1024 * 1024, 10)
    assert(spilled > 10 * fitting)
  }

  test("invalid profiles rejected") {
    intercept[IllegalArgumentException](StorageSim(0, 1.0))
    intercept[IllegalArgumentException](StorageSim(1, 0.0))
  }
}
