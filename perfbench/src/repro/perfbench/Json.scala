package repro.perfbench

/** Minimal JSON writer for the result and trace files. Maps keep their
  * iteration order; non-finite numbers become `null`.
  */
object Json {
  def write(v: Any): String = { val sb = new StringBuilder; emit(v, sb); sb.toString }

  private def emit(v: Any, sb: StringBuilder): Unit = v match {
    case null | None => sb.append("null")
    case Some(x) => emit(x, sb)
    case s: String => quote(s, sb)
    case b: Boolean => sb.append(b)
    case d: Double => if (d.isNaN || d.isInfinite) sb.append("null") else sb.append(d)
    case f: Float => emit(f.toDouble, sb)
    case n: Int => sb.append(n)
    case n: Long => sb.append(n)
    case m: collection.Map[_, _] =>
      sb.append('{')
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb.append(','); first = false
        quote(k.toString, sb); sb.append(':'); emit(x, sb)
      }
      sb.append('}')
    case xs: Iterable[_] =>
      sb.append('[')
      var first = true
      xs.foreach { x => if (!first) sb.append(','); first = false; emit(x, sb) }
      sb.append(']')
    case other => quote(other.toString, sb)
  }

  private def quote(s: String, sb: StringBuilder): Unit = {
    sb.append('"')
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"')
  }
}
