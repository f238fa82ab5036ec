"""Run one workload of the benchmark; the last line of standard output is
the result as one JSON object.

    python3 perfbench/run.py --workload encode --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds the program and the
benchmark on first use (see build.py), runs one JVM, and reports the
metrics BENCHMARK.json lists: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Everything it writes stays under
.bench_build/: the full result of each run (with metadata, sample counts
and tail percentiles) in out/<workload>-seed<n>-trace<t>.json and, for a
traced run, every span and count in the matching .trace.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 170


def git_sha():
    if not os.path.isdir(os.path.join(build.ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def compose(spec, result, traced):
    """The final line: correctness tally plus the metrics BENCHMARK.json names."""
    metrics = {}
    if traced:
        # A per-layer metric of another workload's layer reads 0 here.
        for m in spec["per_layer"]:
            s = result["per_layer"].get(m["name"])
            metrics[m["name"]] = {"value": s["median"] if s else 0.0, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            if m["name"] not in result["end_to_end"]:
                raise KeyError(f"end-to-end metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--corrupt", type=int, choices=[0, 1], default=0,
                   help="flip one bit of an encoded batch before the checks (self-test)")
    a = p.parse_args()

    try:
        classes, sha = build.build()
    except (build.BuildError, subprocess.SubprocessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    out_dir = os.path.join(build.BUILD_DIR, "out")
    tmp = os.path.join(build.BUILD_DIR, "tmp", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    out = os.path.join(out_dir, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    for stale in (out, out[:-len(".json")] + ".trace.json"):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(build.ROOT, "perfbench", "log4j2.properties"),
           f"-Dperfbench.git_sha={git_sha() or ''}", f"-Dperfbench.source_sha256={sha}",
           "-cp", classes + os.pathsep + os.path.join(build.spark_jars(), "*"),
           "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--corrupt", str(a.corrupt),
           "--out", out]
    # Spark's scratch space stays under .bench_build, whatever the caller set.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(tmp, "spark"))
    try:
        sys.stdout.flush()
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(out):
        print(f"benchmark run failed with code {proc.returncode}", file=sys.stderr)
        return 1
    with open(out) as f:
        result = json.load(f)
    try:
        line = compose(spec, result, a.trace == 1)
    except KeyError as e:
        print(f"incomplete result: {e}", file=sys.stderr)
        return 1
    result["reported"] = line
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
