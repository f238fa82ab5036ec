package repro.jobs

import repro.bench.EndToEnd

/** spark-submit entrypoint reproducing Table 7 (Appendix D.2: end-to-end
  * MGD runtimes on the Census and Kdd99 analogs).
  */
object Table7Job {
  def main(args: Array[String]): Unit = Jobs.printEndToEnd("Table 7", EndToEnd.Table7)
}
