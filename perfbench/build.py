"""Build file of the benchmark: compiles the program and the benchmark.

The program's sources (src/main/scala) and the benchmark's (perfbench/src)
compile together with scalac into .bench_build/classes-<hash>, against the
jars of the Spark distribution the project builds on (SPARK_HOME, or the
one whose spark-submit is on PATH). That distribution also ships the
Scala 2.13 compiler, so no build tool and no network are needed. A build
is reused while the sources hash the same.

    python3 perfbench/build.py        # prints the classes directory
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(ROOT, "perfbench", "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit))) if submit else ""
    jars = os.path.join(home, "jars")
    if not home or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found; set SPARK_HOME")
    return jars


def sources():
    if not os.path.isdir(PROGRAM_SRC):
        raise BuildError(f"program sources not found: {os.path.relpath(PROGRAM_SRC, ROOT)}")
    files = []
    for top in (PROGRAM_SRC, BENCH_SRC):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def source_sha256(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def build(timeout_s=800):
    """Compile if needed; return (classes directory, source hash)."""
    files = sources()
    sha = source_sha256(files)
    out = os.path.join(BUILD_DIR, "classes-" + sha[:16])
    if os.path.isfile(os.path.join(out, ".complete")):
        return out, sha
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout_s)
    if proc.returncode != 0:
        raise BuildError(f"scalac failed with code {proc.returncode}")
    open(os.path.join(tmp, ".complete"), "w").close()
    for old in glob.glob(os.path.join(BUILD_DIR, "classes-*")):
        if old != tmp:
            shutil.rmtree(old, ignore_errors=True)
    os.rename(tmp, out)
    return out, sha


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
