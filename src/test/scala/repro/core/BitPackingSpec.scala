package repro.core

import org.scalatest.funsuite.AnyFunSuite
import java.nio.{ByteBuffer, ByteOrder}

class BitPackingSpec extends AnyFunSuite {

  def size(values: Array[Int]): Int = BitPacking.packedSize(values.length, BitPacking.width(values))

  def pack(values: Array[Int]): Array[Byte] = {
    val w = BitPacking.width(values)
    new ByteWriter(BitPacking.packedSize(values.length, w)).packed(values, w).result
  }

  def unpack(bytes: Array[Byte]): Array[Int] = {
    val r = new ByteReader(bytes)
    val out = r.packed()
    r.end()
    out
  }

  test("width selection: 1 byte up to 255") {
    assert(BitPacking.bytesPerInt(0) == 1)
    assert(BitPacking.bytesPerInt(1) == 1)
    assert(BitPacking.bytesPerInt(255) == 1)
  }

  test("width selection: 2 bytes up to 65535") {
    assert(BitPacking.bytesPerInt(256) == 2)
    assert(BitPacking.bytesPerInt(65535) == 2)
  }

  test("width selection: 3 bytes up to 2^24-1 (the uint_24 case)") {
    assert(BitPacking.bytesPerInt(65536) == 3)
    assert(BitPacking.bytesPerInt((1 << 24) - 1) == 3)
  }

  test("width selection: 4 bytes above 2^24") {
    assert(BitPacking.bytesPerInt(1 << 24) == 4)
    assert(BitPacking.bytesPerInt(Int.MaxValue) == 4)
  }

  test("negative values are rejected") {
    intercept[IllegalArgumentException](BitPacking.bytesPerInt(-1))
    intercept[IllegalArgumentException](pack(Array(3, -2, 1)))
  }

  test("BitPacking.width rejects a negative value below a non-negative maximum") {
    for (a <- Seq(Array(3, -2, 1), Array(Int.MinValue, 0), Array(-1)))
      withClue(a.toSeq)(intercept[IllegalArgumentException](BitPacking.width(a)))
  }

  test("empty array round-trips with a 5-byte header") {
    val packed = pack(Array.empty[Int])
    assert(packed.length == 5)
    assert(unpack(packed).isEmpty)
  }

  test("packed size matches the paper's formula") {
    // ceil(log2(max+1)/8) bytes per int + 5-byte header
    assert(size(Array(0, 255)) == 5 + 2 * 1)
    assert(size(Array(256)) == 5 + 2)
    assert(size(Array(70000, 3)) == 5 + 2 * 3)
    assert(size(Array(1 << 25)) == 5 + 4)
  }

  test("pack produces exactly packedSize bytes") {
    for (arr <- Seq(Array(1, 2, 3), Array(300, 4), Array(1 << 20), Array.fill(100)(7)))
      assert(pack(arr).length == size(arr))
  }

  test("round-trip at each width boundary") {
    for (max <- Seq(0, 1, 255, 256, 65535, 65536, (1 << 24) - 1, 1 << 24, Int.MaxValue)) {
      val arr = Array(0, max, max / 2, 1)
      assert(unpack(pack(arr)).toSeq == arr.toSeq, s"max=$max")
    }
  }

  test("randomized round-trip (deterministic seeds)") {
    val rng = new scala.util.Random(12345)
    for (_ <- 1 to 200) {
      val n = rng.nextInt(50)
      val bound = Seq(256, 65536, 1 << 24, Int.MaxValue)(rng.nextInt(4))
      val arr = Array.fill(n)(rng.nextInt(bound))
      assert(unpack(pack(arr)).toSeq == arr.toSeq)
    }
  }

  test("multiple arrays packed into one buffer unpack in sequence") {
    val a = Array(1, 2, 3)
    val b = Array(70000, 5)
    val bytes = new ByteWriter(size(a) + size(b)).packed(a, BitPacking.width(a)).packed(b, BitPacking.width(b)).result
    val r = new ByteReader(bytes)
    assert(r.packed().toSeq == a.toSeq)
    assert(r.packed().toSeq == b.toSeq)
    r.end()
  }

  test("a count larger than the bytes left throws CorruptBatchException before allocating") {
    val header = ByteBuffer.allocate(5).order(ByteOrder.LITTLE_ENDIAN).putInt(Int.MaxValue).put(4.toByte).array()
    intercept[CorruptBatchException](unpack(header))
  }
}
