#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads region-g0,radar-mc --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --trace 0,1 --write-baseline

For every workload, metric and trace setting it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median; ``BENCHMARK.json``
bounds each end-to-end metric's spread. Untraced runs also list the raw
times (``raw.*``, before host-speed scaling) and the probe time. With
``--write-baseline`` the medians, quartiles and the environment are merged
into ``perfbench/baseline.json`` (one entry per workload and trace setting).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=CHECKOUT, capture_output=True, text=True)
    elapsed = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
        if len(lines) < 2:
            sys.exit(1)
    return json.loads(lines[-2])["env"], json.loads(lines[-1]), elapsed


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="region-g0,radar-mc,small-runs")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    path = os.path.join(HERE, "baseline.json")
    baseline = {"workloads": {}}
    if args.write_baseline and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    baseline["run_seconds"] = seconds
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            runs = []
            for seed in seeds(args.seeds):
                env, result, elapsed = run_once(workload, seed, seconds, trace)
                # Untraced runs also report their raw (not host-scaled) times.
                for name, value in env.pop("raw", {}).items():
                    result["metrics"][f"raw.{name}"] = {
                        "value": value, "unit": result["metrics"][name]["unit"]}
                if "probe_ms" in env:
                    result["metrics"]["host.probe_ms"] = {"value": env.pop("probe_ms"),
                                                          "unit": "ms"}
                runs.append((result, elapsed))
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"({elapsed:.1f} s) " + " ".join(
                          f"{k}={m['value']:.4g}" for k, m in list(result["metrics"].items())[:5]),
                      flush=True)
            baseline["env"] = env
            table = {}
            for name in runs[0][0]["metrics"]:
                values = [r["metrics"][name]["value"] for r, _ in runs]
                table[name] = {"unit": runs[0][0]["metrics"][name]["unit"], **summarise(values)}
            table["run_elapsed_s"] = {"unit": "s", **summarise([e for _, e in runs])}
            key = "end_to_end" if trace == 0 else "per_layer"
            baseline["workloads"].setdefault(workload, {})[key] = {
                "seeds": seeds(args.seeds), "metrics": table}
            print(f"\n{workload} ({key}, {len(runs)} seeds)")
            for name, s in table.items():
                bound = bounds.get(name) if trace == 0 else None
                flag = ""
                if bound is not None:
                    flag = "ok" if s["spread"] < bound / 3 else "WIDE" if s["spread"] > bound else "over 1/3"
                print(f"  {name:<44} {s['median']:>14.6g} {s['unit']:<6} "
                      f"spread {s['spread']:.3f} {'' if bound is None else f'(bound {bound}) {flag}'}")
            print(flush=True)
    if args.write_baseline:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
