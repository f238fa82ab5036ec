"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: for each workload, run the benchmark once per seed and report
each metric's median and the distance between its first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound.

    python3 perfbench/spread.py --seeds 1-10 [--workload encode ...] [--seconds N]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = p.parse_args()
    worst = 0.0
    for w in a.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in a.seeds:
            out = subprocess.run(spec["command"] + ["--workload", w, "--seed", str(seed),
                                 "--seconds", str(a.seconds), "--trace", "0"],
                                 cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{out.stderr[-2000:]}")
            line = json.loads(out.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                sys.exit(f"{w} seed {seed}: {line['failed']} of {line['attempted']} checks failed")
            for k, v in line["metrics"].items():
                values[k].append(v["value"])
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"{w:12s} {m['name']:26s} median={med:<12.6g} iqr/median={share:.4f} "
                  f"bound={m['bound']} ({share / m['bound']:.2f} of bound)", flush=True)
    print(f"largest spread, as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
