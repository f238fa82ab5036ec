package repro.core

import java.util.concurrent.atomic.AtomicReference

/** One reusable object per JVM: scratch space that a call fills and
  * leaves behind, such as Algorithm 1's tables or a kernel's `H` table.
  *
  * A call takes the spare, or makes its own while another thread holds
  * it, and gives it back when done, so the spare is whatever was given
  * back last. One spare, not one per thread: a `ThreadLocal` would keep a
  * copy on every Spark executor thread. A call that throws need not give
  * its object back; a later call makes a new one.
  */
private[core] final class Spare[A <: AnyRef] {
  private val held = new AtomicReference[A]

  /** The spare, or `make` while another call holds it or before any call
    * has given one back.
    */
  def take(make: => A): A = {
    val a = held.getAndSet(null.asInstanceOf[A])
    if (a != null) a else make
  }

  /** Makes `a` the spare; its contents are not cleared. */
  def give(a: A): Unit = held.set(a)
}
