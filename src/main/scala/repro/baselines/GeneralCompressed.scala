package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, IOException}
import java.util.zip.{GZIPInputStream, GZIPOutputStream}
import org.xerial.snappy.Snappy
import repro.core.{ByteReader, ByteWriter, CorruptBatchException}
import repro.linalg.{DenseMatrix, EncodedMatrix, MatrixEncoder}

/** The general compression schemes of §5 (methods #6 and #7): Gzip and
  * Snappy over the serialized DEN bytes. Per Figure 1B, *every* matrix
  * operation must first decompress the mini-batch — that decompression
  * overhead is exactly what the paper charges these methods with, so each
  * op here decodes and delegates to the dense kernels (and `A.*c`
  * re-compresses to stay in the compressed representation).
  *
  * Layout: `int32 numRows | int32 numCols | compressed DEN payload`. The
  * payload is checked when it is decompressed, which every op does.
  */
final class GeneralCompressedMatrix(
    val encoder: GeneralCompression,
    val numRows: Int,
    val numCols: Int,
    val compressed: Array[Byte]
) extends EncodedMatrix {

  def sizeBytes: Long = 8L + compressed.length
  def toBytes: Array[Byte] = new ByteWriter(sizeBytes).int(numRows).int(numCols).bytes(compressed).result

  def decode: DenseMatrix = {
    val n = numRows * numCols
    val raw =
      try encoder.decompress(compressed, 8 * n)
      catch { case e: IOException => throw new CorruptBatchException(s"${encoder.name} payload: $e") }
    val r = new ByteReader(raw)
    val data = r.doubles(n)
    r.end()
    new DenseMatrix(numRows, numCols, data)
  }

  def timesVector(v: Array[Double]): Array[Double] = decode.timesVector(v)
  def vectorTimes(v: Array[Double]): Array[Double] = decode.vectorTimes(v)
  def timesMatrix(m: DenseMatrix): DenseMatrix = decode.timesMatrix(m)
  def leftTimes(m: DenseMatrix): DenseMatrix = decode.leftTimes(m)
  def timesScalar(c: Double): GeneralCompressedMatrix = encoder.encode(decode.timesScalar(c))
}

object GeneralCompressedMatrix {
  /** Row-major little-endian float64 serialization of DEN. */
  def serializeDen(m: DenseMatrix): Array[Byte] = new ByteWriter(8L * m.data.length).doubles(m.data).result
}

/** A general compression scheme applied to DEN's float64 payload. */
abstract class GeneralCompression extends MatrixEncoder {
  def compress(bytes: Array[Byte]): Array[Byte]

  /** Decompresses to at most `length` + 1 bytes. */
  def decompress(bytes: Array[Byte], length: Int): Array[Byte]

  def encode(batch: DenseMatrix): GeneralCompressedMatrix =
    new GeneralCompressedMatrix(this, batch.rows, batch.cols, compress(GeneralCompressedMatrix.serializeDen(batch)))

  def fromBytes(bytes: Array[Byte]): GeneralCompressedMatrix = {
    val r = new ByteReader(bytes)
    val (rows, cols) = r.shape(cells = true)
    new GeneralCompressedMatrix(this, rows, cols, r.rest())
  }
}

object GzipEncoder extends GeneralCompression {
  val name = "Gzip"
  def compress(bytes: Array[Byte]): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val out = new GZIPOutputStream(bos)
    out.write(bytes); out.close()
    bos.toByteArray
  }
  def decompress(bytes: Array[Byte], length: Int): Array[Byte] = {
    val in = new GZIPInputStream(new ByteArrayInputStream(bytes))
    try in.readNBytes(length + 1) finally in.close()
  }
}

object SnappyEncoder extends GeneralCompression {
  val name = "Snappy"
  def compress(bytes: Array[Byte]): Array[Byte] = Snappy.compress(bytes)
  def decompress(bytes: Array[Byte], length: Int): Array[Byte] = {
    val claimed = Snappy.uncompressedLength(bytes)
    CorruptBatchException.check(claimed == length, s"Snappy payload claims $claimed bytes, not $length")
    Snappy.uncompress(bytes)
  }
}
