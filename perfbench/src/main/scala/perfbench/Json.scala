package perfbench

/** Minimal JSON writer for the benchmark's result records. Accepts nested
  * non-empty `Seq[(String, Any)]` (objects, in key order), other `Seq`s
  * (arrays), strings, `Int`, `Long`, `Double`, booleans and `Option`s.
  */
object Json {

  def write(v: Any): String = {
    val sb = new StringBuilder
    emit(sb, v)
    sb.toString
  }

  private def emit(sb: StringBuilder, v: Any): Unit = v match {
    case null | None => sb ++= "null"
    case Some(x) => emit(sb, x)
    case b: Boolean => sb ++= b.toString
    case d: Double => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
    case n: Int => sb ++= n.toString
    case n: Long => sb ++= n.toString
    case s: String => quote(sb, s)
    case xs: Seq[_] if xs.nonEmpty && xs.forall(isField) =>
      obj(sb, xs.collect { case (k: String, x) => k -> x })
    case xs: Iterable[_] =>
      sb += '['
      xs.zipWithIndex.foreach { case (x, i) => if (i > 0) sb += ','; emit(sb, x) }
      sb += ']'
    case other => quote(sb, other.toString)
  }

  private def isField(x: Any): Boolean = x match {
    case (_: String, _) => true
    case _ => false
  }

  private def obj(sb: StringBuilder, fields: Seq[(String, Any)]): Unit = {
    sb += '{'
    fields.zipWithIndex.foreach { case ((k, x), i) =>
      if (i > 0) sb += ','
      quote(sb, k); sb += ':'; emit(sb, x)
    }
    sb += '}'
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\r' => sb ++= "\\r"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
  }
}
