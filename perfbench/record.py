#!/usr/bin/env python3
"""Repeat the survey benchmark over seeds and summarize it.

    python3 perfbench/record.py --seeds 1-10
    python3 perfbench/record.py --workloads sim_tdp --seeds 1-5 --no-trace
    python3 perfbench/record.py --seeds 1-10 --label "seed commit" --append perfbench/trajectory.json

Runs `run.py` once per workload and seed with BENCHMARK.json's run length,
then one traced run per workload (first seed). For every end-to-end metric
it prints the median, quartiles and run count over the seeds and the spread
(distance between the quartiles as a share of the median) against the
metric's bound. Exits nonzero if a run fails its output checks or a spread
other than setup_s exceeds its bound. --append adds the summary as one
entry to a trajectory file (a JSON list).
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as M  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.perf_counter() - t0
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if r.returncode != 0 or result is None or not result["correct"]:
        print(r.stdout[-3000:], r.stderr[-3000:], file=sys.stderr)
        raise SystemExit(f"record: {workload} seed {seed} trace {trace} failed ({r.returncode})")
    return result, took


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--label", default="")
    ap.add_argument("--append", help="trajectory file to add the summary to")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    entry = {"label": args.label, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    over = []
    for w in args.workloads.split(","):
        values, took = {}, []
        for seed in seeds:
            result, t = run_once(w, seed, seconds, 0)
            took.append(t)
            for name, v in result["metrics"].items():
                values.setdefault(name, []).append(v["value"])
        summary = {}
        print(f"{w}: {len(seeds)} runs, {min(took):.1f}-{max(took):.1f} s each")
        for name, vals in values.items():
            q1, med, q3 = M.quartiles(vals)
            spread = M.iqr_share(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "spread": spread}
            flag = ""
            if spread > bounds[name]:
                flag = "  OVER BOUND"
                if name != "setup_s":
                    over.append(f"{w}.{name}")
            elif spread > bounds[name] / 3:
                flag = "  over a third of the bound"
            print(f"  {name:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {bounds[name]}){flag}")
        entry["workloads"][w] = {"end_to_end": summary}
        if not args.no_trace:
            result, _ = run_once(w, seeds[0], seconds, 1)
            entry["workloads"][w]["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  traced: overhead {result['metrics']['trace.overhead_s']['value']:.3f} s")
    if args.append:
        path = Path(args.append)
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    if over:
        print(f"record: spread over bound: {', '.join(over)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
