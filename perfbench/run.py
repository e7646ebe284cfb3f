#!/usr/bin/env python3
"""MoRER benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload dexter-bootstrap --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

The program (src/main/scala, jobs/) and the benchmark (perfbench/src) are
compiled with the Scala compiler that ships with Spark into
.bench_build/perfbench, once per source state. Each run is one JVM with a
fixed heap. Its last stdout line is the result object; the lines before
it hold the run's context record and, when traced, the span breakdown.
See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM_SOURCES = [ROOT / "src" / "main" / "scala", ROOT / "jobs"]
BENCH_SOURCES = [BENCH / "src" / "main" / "scala"]
TEST_SOURCES = [BENCH / "src" / "test" / "scala"]
HEAP = "2g"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 600

# Spark on Java 17 needs these; spark-submit adds the same list.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not (Path(home) / "jars").is_dir():
        die("SPARK_HOME must name a Spark distribution with a jars/ directory")
    return Path(home) / "jars"


def scala_files(dirs):
    files = sorted(p for d in dirs for p in d.rglob("*.scala"))
    if not files:
        die("no Scala sources under " + ", ".join(str(d.relative_to(ROOT)) for d in dirs))
    return files


def compile_into(out, sources, classpath, jars):
    """Compiles `sources` into `out` unless a build of the same sources is there."""
    digest = hashlib.sha256()
    for f in sources:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp = out.with_suffix(".sha256")
    if out.is_dir() and stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return
    compiler = [next(jars.glob(n + "-2.13.*.jar"), None)
                for n in ("scala-compiler", "scala-library", "scala-reflect")]
    if None in compiler:
        die("the Spark distribution has no Scala 2.13 compiler jars")
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xss4m", "-Xmx1g",
           "-cp", os.pathsep.join(map(str, compiler)), "scala.tools.nsc.Main",
           "-nowarn", "-d", str(tmp),
           "-classpath", os.pathsep.join([str(c) for c in classpath] + [str(jars / "*")])]
    print("perfbench: compiling %d files into %s" % (len(sources), out.relative_to(ROOT)),
          file=sys.stderr)
    res = subprocess.run(cmd + [str(f) for f in sources], timeout=BUILD_TIMEOUT_S)
    if res.returncode != 0:
        die("compilation failed")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    stamp.write_text(digest.hexdigest())


def build(with_tests):
    jars = spark_jars()
    classes = BUILD / "classes"
    compile_into(classes, scala_files(PROGRAM_SOURCES + BENCH_SOURCES), [], jars)
    classpath = [classes]
    if with_tests:
        test_classes = BUILD / "test-classes"
        compile_into(test_classes, scala_files(TEST_SOURCES), [classes], jars)
        classpath.append(test_classes)
    return classpath + [jars / "*"]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_java(classpath, main, args):
    """Runs one benchmark JVM; every file it writes stays under BUILD."""
    scratch = BUILD / ("run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    # The session must take the program's own defaults (local[*], 64
    # shuffle partitions), not an override from the environment.
    for var in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
        env.pop(var, None)
    env["SPARK_LOCAL_DIRS"] = str(scratch / "spark-local")
    cmd = (["java", "-XX:-UsePerfData", "-Xms" + HEAP, "-Xmx" + HEAP]
           + JAVA_MODULE_OPTIONS
           + ["-Djava.io.tmpdir=" + str(scratch / "tmp"),
              "-Dspark.driver.host=127.0.0.1",
              "-Dlog4j2.configurationFile=" + str(BENCH / "resources" / "log4j2.properties"),
              "-cp", os.pathsep.join(map(str, classpath)), main] + args)
    proc = subprocess.Popen(cmd, env=env, cwd=str(scratch))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests instead of a workload")
    a = ap.parse_args()
    if not all(d.is_dir() for d in PROGRAM_SOURCES):
        die("run from a checkout of the repository: program sources are missing")
    if a.self_test:
        sys.exit(run_java(build(with_tests=True), "repro.perfbench.SelfTest", []))
    if not a.workload:
        die("--workload is required")
    code = run_java(build(with_tests=False), "repro.perfbench.Main",
                    ["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace),
                     "--sha", git_sha()])
    sys.exit(code)


if __name__ == "__main__":
    main()
