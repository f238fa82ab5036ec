package repro.core

import scala.concurrent.{Await, Promise}
import scala.concurrent.duration._
import scala.util.Try

/** A time bound on a test body that may loop forever, such as a probe or
  * a sibling walk on a table that never empties. The body runs on a daemon
  * thread, and the test fails with a `TimeoutException` once `limit` has
  * passed, whether or not the body ever returns: ScalaTest's `failAfter`
  * with its default signaler reports only after the body returns, and an
  * interrupt does not stop a loop that never checks for one. The daemon
  * thread is left running, so a hung body cannot keep the JVM alive.
  */
object TimeLimit {
  def within[A](limit: FiniteDuration = 60.seconds)(body: => A): A = {
    val result = Promise[A]()
    val thread = new Thread(() => { result.complete(Try(body)); () }, "time-limited test body")
    thread.setDaemon(true)
    thread.start()
    Await.result(result.future, limit)
  }
}
