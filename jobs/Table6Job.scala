package repro.jobs

import repro.bench.EndToEnd

/** spark-submit entrypoint reproducing Table 6 (end-to-end MGD runtimes
  * on the ImageNet and Mnist analogs, small/in-memory and large/
  * out-of-core configurations, local + Spark in-system rows).
  */
object Table6Job {
  def main(args: Array[String]): Unit = Jobs.printEndToEnd("Table 6", EndToEnd.Table6)
}
