#!/usr/bin/env python3
"""Builds and runs the SANTOS benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload large-full --seed 303 --seconds 10 --trace 0

Run from the root of a checkout of the repository. The first run compiles the
program (src/main/scala, jobs/) and the benchmark (perfbench/src/main/scala)
with the Scala compiler that ships with Spark into .bench_build/perfbench/;
later runs reuse the classes while the sources are unchanged. The last line of
standard output is the run's result as one JSON object; the full record of the
run (settings, metrics, checks, spans) is written beside it under
.bench_build/perfbench/runs/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"

SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "jobs",
               ROOT / "perfbench" / "src" / "main" / "scala"]
LOG_CONFIG = ROOT / "perfbench" / "src" / "main" / "resources" / "log4j2.properties"
# The Spark driver heap the benchmark pins; build.sbt would otherwise fork with 48g.
DRIVER_MEM = "4g"
# Environment overrides the shipped session settings read; the benchmark
# measures the defaults.
CLEARED_ENV = ["SANTOS_SHUFFLE_PARTITIONS", "SPARK_SHUFFLE_PARTITIONS", "SPARK_MASTER"]
# A safety net only: a run of a benchmarked workload ends well within 180 s,
# while a traced run of large-full takes about four minutes.
RUN_TIMEOUT_S = 900
BUILD_TIMEOUT_S = 600


def fail(msg):
    print(f"[perfbench] error: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    """Spark's jars/ directory: from $SPARK_HOME, else from a spark-submit on PATH."""
    bins = [Path(d) for d in os.environ.get("PATH", "").split(os.pathsep) if d]
    homes = [Path(os.environ["SPARK_HOME"])] if os.environ.get("SPARK_HOME") else []
    homes += [b.resolve().parent for b in bins if (b / "spark-submit").is_file()]
    for home in homes:
        if any((home / "jars").glob("spark-core_*.jar")):
            return home / "jars"
    fail("no Spark installation found: set SPARK_HOME")


def sources():
    missing = [str(d.relative_to(ROOT)) for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        fail(f"missing source directories {missing}; run from a checkout of the repository")
    files = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not files:
        fail("no Scala sources found")
    return files


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout or
    interruption and waits for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def build(jars):
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    classes = BUILD / "classes"
    stamp_file = BUILD / "classes.stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / f"classes.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    print(f"[perfbench] compiling {len(files)} sources ...", file=sys.stderr)
    t0 = time.time()
    try:
        code = run_group(["java", "-XX:-UsePerfData", "-Xmx2g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
                          "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in files],
                         BUILD_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        code = "timeout"
    if code != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"compilation failed (exit {code})")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(stamp)
    print(f"[perfbench] compiled in {time.time() - t0:.1f} s", file=sys.stderr)
    return classes


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    for s in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(s, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--points", type=int, default=None,
                    help="point queries of a traced run (default: the workload's)")
    a = ap.parse_args()

    jars = spark_jars()
    classes = build(jars)
    run_id = f"{a.workload}-seed{a.seed}-trace{a.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    out = BUILD / "runs" / run_id
    tmp = BUILD / "tmp" / run_id
    out.mkdir(parents=True)
    tmp.mkdir(parents=True)

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["SPARK_DRIVER_MEM"] = DRIVER_MEM
    cmd = ["java", "-XX:-UsePerfData", f"-Xms{DRIVER_MEM}", f"-Xmx{DRIVER_MEM}",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}",
           "-Dspark.driver.host=127.0.0.1",
           "-Dspark.ui.enabled=false",
           f"-Dlog4j2.configurationFile={LOG_CONFIG}",
           "-cp", f"{classes}{os.pathsep}{jars}/*",
           "perfbench.Main",
           "--workload", a.workload, "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", str(out)]
    for flag, value in (("--seed", a.seed), ("--points", a.points)):
        if value is not None:
            cmd += [flag, str(value)]
    try:
        code = run_group(cmd, RUN_TIMEOUT_S, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not end within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = out / "result.json"
    if code != 0 or not result.is_file():
        fail(f"benchmark exited with {code}")
    line = json.dumps(json.loads(result.read_text()))
    print(line, flush=True)


if __name__ == "__main__":
    main()
