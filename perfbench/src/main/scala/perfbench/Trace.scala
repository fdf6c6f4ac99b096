package perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Spark work done between two points: jobs started, stages and tasks
  * completed, and bytes written to shuffle files.
  */
final case class SparkWork(jobs: Long, stages: Long, tasks: Long, shuffleWriteBytes: Long) {
  def -(o: SparkWork): SparkWork =
    SparkWork(jobs - o.jobs, stages - o.stages, tasks - o.tasks, shuffleWriteBytes - o.shuffleWriteBytes)
}

object SparkWork {
  val zero: SparkWork = SparkWork(0, 0, 0, 0)
}

/** A listener that counts the Spark work of the whole application. */
final class WorkCounter extends SparkListener {
  private val jobs = new AtomicLong
  private val stages = new AtomicLong
  private val tasks = new AtomicLong
  private val shuffleWrite = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = { tasks.incrementAndGet(); () }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    stages.incrementAndGet()
    Option(e.stageInfo.taskMetrics).foreach { m =>
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def snapshot(): SparkWork =
    SparkWork(jobs.get, stages.get, tasks.get, shuffleWrite.get)
}

/** One traced call: its name, parent span, wall-clock interval, the Spark work
  * it caused, and the rows of its forced output (-1 when it has none).
  */
final case class Span(id: Int, parent: Option[Int], name: String,
                      startNanos: Long, endNanos: Long, work: SparkWork, rows: Long) {
  def millis: Double = (endNanos - startNanos) / 1e6
}

/** Records spans around calls into the program's modules. Spans are kept in
  * memory and written out with the run's record when the run ends.
  */
final class Tracer(spark: SparkSession) {
  private val counter = new WorkCounter
  spark.sparkContext.addSparkListener(counter)

  private val spans = mutable.ArrayBuffer[Span]()
  private var stack = List.empty[Int]
  private var nextId = 0

  def work(): SparkWork = {
    ListenerBusDrain(spark.sparkContext)
    counter.snapshot()
  }

  /** Runs `body` as a span with no output rows. */
  def span[A](name: String)(body: => A): (A, Span) = spanRows[A](name)((body, -1L))

  /** Runs `body` as a span; `body` returns its result and the row count of
    * its forced output.
    */
  def spanRows[A](name: String)(body: => (A, Long)): (A, Span) = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption
    stack = id :: stack
    val w0 = work()
    val t0 = System.nanoTime()
    try {
      val (a, rows) = body
      val s = Span(id, parent, name, t0, System.nanoTime(), work() - w0, rows)
      spans += s
      (a, s)
    } finally stack = stack.tail
  }

  def all: Seq[Span] = spans.toSeq

  def close(): Unit = spark.sparkContext.removeSparkListener(counter)
}

/** Times named calls; with a tracer, also records each as a span. */
final case class Clock(tracer: Option[Tracer]) {
  def apply[A](name: String)(body: => A): (A, Long) = tracer match {
    case Some(t) => val (a, s) = t.span(name)(body); (a, s.endNanos - s.startNanos)
    case None => Main.timed(body)
  }
}

object Clock {
  val off: Clock = Clock(None)
}
