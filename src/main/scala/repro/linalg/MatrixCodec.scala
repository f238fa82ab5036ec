package repro.linalg

import repro.core.CorruptBatchException

/** Framing for shipping compressed mini-batches through Spark binary
  * columns: one tag byte, then the encoding's own bytes
  * ([[EncodedMatrix.toBytes]]). The tag is 1 + the encoding's index in
  * [[Encodings.all]], so TOC is tag 1.
  */
object MatrixCodec {
  def serialize(m: EncodedMatrix): Array[Byte] = {
    val payload = m.toBytes
    val out = new Array[Byte](payload.length + 1)
    out(0) = (Encodings.all.indexOf(m.encoder) + 1).toByte
    System.arraycopy(payload, 0, out, 1, payload.length)
    out
  }

  def deserialize(bytes: Array[Byte]): EncodedMatrix = {
    val tag = if (bytes.isEmpty) 0 else bytes(0).toInt
    CorruptBatchException.check(tag >= 1 && tag <= Encodings.all.length, s"unknown codec tag $tag")
    Encodings.all(tag - 1).fromBytes(java.util.Arrays.copyOfRange(bytes, 1, bytes.length))
  }
}
