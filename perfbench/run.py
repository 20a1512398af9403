#!/usr/bin/env python3
"""Survey benchmark: run a workload through the `survey` binary and report
the end-to-end metrics, or (with --trace 1) the per-layer metrics of a
traced run.

    python3 perfbench/run.py --workload sim_tdp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root. The first run builds `survey` and the tracer
(perfbench/tracer) with cargo into $CARGO_TARGET_DIR (default .bench_build).

A workload is a list of `survey` invocations that together make one
sample. Every invocation runs in its own process with `--jobs 1`, a sweep
pool two threads wide (RAYON_NUM_THREADS=2) and the survey seed the
benchmark seed selects as `--seed`. Untraced runs repeat samples for
--seconds and report medians; every invocation's survey.json must be
byte-identical across the run and across earlier runs of the same workload
and seed with the same survey build (the ledger in .bench_out/gate.json).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` (fidelity checks) and `metrics`.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as M  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
POOL_THREADS = "2"
# Set-up probes per untraced run: each starts the first invocation of the
# workload, times it to the config banner and kills it.
SETUP_PROBES = 30
# Hard cap on one survey or tracer process.
PROCESS_TIMEOUT_S = 150

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "sim_tdp": [
        ["--fidelity", "quick", "--only", "table4,fleet_cap_spread", "--fleet-size", "8"],
    ],
    "sim_below_limit": [
        ["--fidelity", "paper", "--only",
         "table2,table3,fig3,fig4,fig56,section6b_governor,fig7,fig8"],
        ["--platform", "skylake-sp", "--fidelity", "paper", "--only",
         "skx_license_table,skx_ufs_mesh"],
    ],
    "surrogate_fleet": [
        ["--fidelity", "analytic", "--only", "table4,fleet_cap_spread,fleet_analytic_scale",
         "--fleet-size", "65536"],
    ],
}

# Survey seeds on which every fidelity check of every workload passes:
# 1-40 scanned, and at 2, 21, 27 and 39 a surrogate spot check misses its
# 10% gate (known_divergences.json). The benchmark seed selects one of
# them, so every benchmark seed gives inputs on which no check fails.
SURVEY_SEEDS = tuple(s for s in range(1, 41) if s not in (2, 21, 27, 39))


def survey_seed(seed):
    return SURVEY_SEEDS[seed % len(SURVEY_SEEDS)]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def only_ids(args):
    return args[args.index("--only") + 1].split(",")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def experiment_ids():
    """Every experiment id any workload runs, in first-seen order."""
    ids = []
    for invs in WORKLOADS.values():
        for inv in invs:
            ids += [i for i in only_ids(inv) if i not in ids]
    return ids


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build(env):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"no repository sources at {ROOT}: the benchmark builds the survey from them")
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "survey"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(ROOT / "perfbench" / "tracer" / "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if r.returncode != 0:
            log(r.stderr[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")
    target = Path(env["CARGO_TARGET_DIR"]) / "release"
    return target / "survey", target / "perfbench-tracer"


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def spawn(cmd, env, stdout):
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=subprocess.PIPE)
    timer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
    timer.start()
    return p, timer


def reap(p, timer):
    """Wait for `p` and return (exit code, CPU seconds, peak RSS in MB)."""
    _, status, ru = os.wait4(p.pid, 0)
    timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def setup_probe(survey, inv, seed, env, out):
    """Seconds from process start to the config banner, then kill."""
    t0 = time.perf_counter()
    p, timer = spawn([str(survey), *inv, "--jobs", "1", "--seed", str(seed), "--out", str(out)],
                     env, subprocess.DEVNULL)
    line = p.stderr.readline().decode(errors="replace")
    setup = time.perf_counter() - t0
    p.kill()
    reap(p, timer)
    p.stderr.close()
    if M.parse_banner(line) is None:
        raise BenchError(f"no config banner from survey {' '.join(inv)}: {line!r}")
    return setup


def run_invocation(survey, inv, seed, env, workdir, tag):
    """One timed `survey` process. Returns its measurements and output."""
    out = workdir / f"{tag}.json"
    stdout_path = workdir / f"{tag}.stdout"
    if out.exists():
        out.unlink()
    cmd = [str(survey), *inv, "--jobs", "1", "--seed", str(seed), "--out", str(out)]
    with open(stdout_path, "wb") as so:
        t0 = time.perf_counter()
        p, timer = spawn(cmd, env, so)
        banner = p.stderr.readline()
        setup = time.perf_counter() - t0
        rest = p.stderr.read()
        code, cpu, rss = reap(p, timer)
        wall = time.perf_counter() - t0
        p.stderr.close()
    stderr = (banner + rest).decode(errors="replace")
    stdout = stdout_path.read_text(errors="replace")
    doc = out.read_bytes() if out.exists() else None
    return {"code": code, "wall": wall, "cpu": cpu, "rss": rss, "setup": setup,
            "banner": M.parse_banner(banner.decode(errors="replace")),
            "stdout": stdout, "stderr": stderr, "doc": doc}


def run_tracer(tracer, args, env):
    t0 = time.perf_counter()
    p, timer = spawn([str(tracer), *args], env, subprocess.DEVNULL)
    err = p.stderr.read().decode(errors="replace")
    code, _, _ = reap(p, timer)
    p.stderr.close()
    if code != 0:
        raise BenchError(f"tracer {args[0]} failed ({code}): {err[-2000:]}")
    return time.perf_counter() - t0


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_document(inv, res, problems):
    """Validate one invocation's survey.json, banner, scoreboard and stderr
    timing lines. Returns the check tally (`total`, `failed`), simulated
    seconds, scoreboard points and the document's sha256, or None when
    there is no readable document."""
    ids = only_ids(inv)
    if res["doc"] is None:
        problems.append(f"{' '.join(inv)}: exited {res['code']} without writing survey.json")
        return None
    sha = hashlib.sha256(res["doc"]).hexdigest()
    try:
        doc = json.loads(res["doc"])
        total = int(doc["summary"]["checks_total"])
        passed = int(doc["summary"]["checks_passed"])
        exps = doc["experiments"]
        sim = sum(float(e["sim_time_s"]) for e in exps)
        got_ids = [e["id"] for e in exps]
    except (ValueError, KeyError, TypeError) as e:
        problems.append(f"{' '.join(inv)}: malformed survey.json ({e})")
        return None
    if sorted(got_ids) != sorted(ids):
        problems.append(f"{' '.join(inv)}: experiments {got_ids}, expected {ids}")
    banner = res["banner"] or {}
    if (banner.get("jobs"), banner.get("pool")) != ("1", POOL_THREADS):
        problems.append(f"{' '.join(inv)}: banner {banner}, expected jobs=1 pool={POOL_THREADS}")
    if res["code"] != 0:
        problems.append(f"{' '.join(inv)}: exit code {res['code']}")
    if passed != total:
        problems.append(f"{' '.join(inv)}: {total - passed} of {total} fidelity checks failed")
    if not math.isfinite(sim) or sim <= 0:
        problems.append(f"{' '.join(inv)}: simulated time {sim}")
    board = M.parse_scoreboard(res["stdout"])
    if sorted(board) != sorted(ids):
        problems.append(f"{' '.join(inv)}: scoreboard rows {sorted(board)}, expected {sorted(ids)}")
    timings = M.parse_timings(res["stderr"])
    if sorted(timings) != sorted(ids):
        problems.append(f"{' '.join(inv)}: stderr timing lines {sorted(timings)}, expected {sorted(ids)}")
    points = M.scoreboard_points(res["stdout"])
    if points <= 0:
        problems.append(f"{' '.join(inv)}: scoreboard counts no points")
    return {"total": total, "failed": total - passed, "sim": sim, "points": points, "sha": sha}


@functools.lru_cache(maxsize=None)
def build_id(survey):
    return hashlib.sha256(Path(survey).read_bytes()).hexdigest()[:16]


def gate(workload, seed, survey, shas, docs, problems):
    """The output gate: every run of one workload and seed with one survey
    build must write the same survey.json bytes. The ledger records each
    document's sha256 and (passed, total) check tally."""
    path = ROOT / ".bench_out" / "gate.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}/{seed}/{build_id(survey)}"
    tallies = [[d["total"] - d["failed"], d["total"]] if d else None for d in docs]
    if key in ledger and ledger[key]["sha256"] != shas:
        problems.append(f"output gate: {key} wrote {shas}, an earlier run wrote {ledger[key]['sha256']}")
    else:
        ledger[key] = {"sha256": shas, "checks": tallies}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(path)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_sample(survey, invs, seed, env, workdir, k, problems):
    """One sample: every invocation of the workload, in order."""
    results, docs = [], []
    for i, inv in enumerate(invs):
        res = run_invocation(survey, inv, seed, env, workdir, f"s{k}-i{i}")
        results.append(res)
        docs.append(check_document(inv, res, problems))
    return results, docs


def sample_metrics(results, docs):
    """End-to-end metrics of one sample (sums over its invocations)."""
    wall = sum(r["wall"] for r in results)
    ok = [d for d in docs if d is not None]
    total = sum(d["total"] for d in ok)
    return {
        "wall_s": wall,
        "cpu_s": sum(r["cpu"] for r in results),
        "sim_rate": sum(d["sim"] for d in ok) / wall,
        "points_per_s": sum(d["points"] for d in ok) / wall,
        "peak_rss_mb": max(r["rss"] for r in results),
        "pass_ratio": M.ratio(total - sum(d["failed"] for d in ok), total),
    }


def tally(docs_per_sample, n_invs):
    """(attempted, failed) fidelity checks over every document of a run. A
    missing document counts all its checks (as another run of the same
    invocation reported them, else one) as failed."""
    attempted = failed = 0
    for i in range(n_invs):
        known = [d[i]["total"] for d in docs_per_sample if d[i] is not None]
        for d in docs_per_sample:
            if d[i] is None:
                n = known[0] if known else 1
                attempted += n
                failed += n
            else:
                attempted += d[i]["total"]
                failed += d[i]["failed"]
    return attempted, failed


def consistent_shas(docs_per_sample, n_invs, problems):
    shas = []
    for i in range(n_invs):
        seen = {d[i]["sha"] for d in docs_per_sample if d[i] is not None}
        if len(seen) > 1:
            problems.append(f"invocation {i} wrote {len(seen)} different survey.json documents in one run")
        shas.append(sorted(seen)[0] if seen else None)
    return shas


def timed_run(workload, seed, seconds, survey, env, workdir, problems):
    invs = WORKLOADS[workload]
    setups = [setup_probe(survey, invs[j % len(invs)], seed, env, workdir / "probe.json")
              for j in range(SETUP_PROBES)]
    samples, all_docs, durations = [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results, docs = run_sample(survey, invs, seed, env, workdir, len(samples), problems)
        durations.append(time.perf_counter() - t0)
        setups += [r["setup"] for r in results]
        all_docs.append(docs)
        if all(d is not None for d in docs):
            samples.append(sample_metrics(results, docs))
        elapsed = time.perf_counter() - t_start
        if problems or elapsed + statistics.median(durations) > seconds:
            break
    shas = consistent_shas(all_docs, len(invs), problems)
    attempted, failed = tally(all_docs, len(invs))
    gate(workload, seed, survey, shas, all_docs[0], problems)
    per_metric = {name: [s[name] for s in samples] for name in (samples[0] if samples else {})}
    per_metric["setup_s"] = setups
    return per_metric, attempted, failed, shas


def traced_run(workload, seed, survey, tracer, env, workdir, problems):
    invs = WORKLOADS[workload]
    results, docs = run_sample(survey, invs, seed, env, workdir, 0, problems)
    shas = consistent_shas([docs], len(invs), problems)
    attempted, failed = tally([docs], len(invs))
    gate(workload, seed, survey, shas, docs, problems)
    untraced_wall = sum(r["wall"] for r in results)

    traced_wall, exp_spans = 0.0, []
    for i, inv in enumerate(invs):
        out, spans = workdir / f"traced-{i}.json", workdir / f"exp-{i}.jsonl"
        traced_wall += run_tracer(tracer, ["experiments", "--spans", str(spans), "--out", str(out),
                                           *inv, "--jobs", "1", "--seed", str(seed)], env)
        exp_spans += read_spans(spans)
        sha = hashlib.sha256(out.read_bytes()).hexdigest()
        if sha != shas[i]:
            problems.append(f"traced run of {' '.join(inv)} wrote {sha}, untraced {shas[i]}")
        doc = json.loads(out.read_bytes())
        attempted += int(doc["summary"]["checks_total"])
        failed += int(doc["summary"]["checks_total"]) - int(doc["summary"]["checks_passed"])

    layer_spans = workdir / "layers.jsonl"
    run_tracer(tracer, ["layers", "--workload", workload, "--seed", str(seed),
                        "--spans", str(layer_spans)], env)
    values = M.experiment_metrics(exp_spans, experiment_ids())
    values.update(M.layer_metrics(read_spans(layer_spans)))
    values["trace.overhead_s"] = traced_wall - untraced_wall
    log(f"perfbench: {workload} traced wall {traced_wall:.3f} s, untraced {untraced_wall:.3f} s")
    return values, attempted, failed, shas


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report_timed(workload, per_metric, units):
    print(f"{workload}: end-to-end metrics (host time, tracing off)")
    print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'tail':>16} {'n':>4}")
    for name, unit in units.items():
        s = M.summarize(per_metric[name])
        tail = f"p{s['tail_p']}={s['tail']:.6g}" if "tail_p" in s else "-"
        print(f"  {name:<14} {unit:<6} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} {tail:>16} {s['n']:>4}")


def report_traced(workload, values, units):
    print(f"{workload}: per-layer metrics (traced run; 0 = the layer made no such call)")
    for name, unit in units.items():
        print(f"  {name:<42} {values[name]:>14.6g} {unit}")


def run_workload(workload, seed, seconds, trace, survey, tracer, env):
    bench = spec()
    workdir = ROOT / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        if trace:
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            values, attempted, failed, shas = traced_run(workload, seed, survey, tracer, env, workdir, problems)
            report_traced(workload, values, units)
            out = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        else:
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            per_metric, attempted, failed, shas = timed_run(workload, seed, seconds, survey, env, workdir, problems)
            if not per_metric.get("wall_s"):
                problems.append("no complete sample")
                out = {}
            else:
                report_timed(workload, per_metric, units)
                out = {name: {"value": statistics.median(per_metric[name]), "unit": unit}
                       for name, unit in units.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, sha in enumerate(shas):
        print(f"  survey.json[{i}] sha256 {sha}  ({' '.join(WORKLOADS[workload][i])})")
    print(f"  fidelity checks: {attempted - failed}/{attempted} passed")
    for v in out.values():
        if not math.isfinite(v["value"]):
            problems.append(f"non-finite metric value {v}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    return {"correct": not problems and failed == 0 and bool(out),
            "attempted": max(attempted, 1), "failed": failed if attempted else 1, "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a u64")

    env = dict(os.environ, RAYON_NUM_THREADS=POOL_THREADS)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    seed = survey_seed(args.seed)
    try:
        survey, tracer = build(env)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        print(f"perfbench: benchmark seed {args.seed} runs survey seed {seed}")
        results = {w: run_workload(w, seed, args.seconds, args.trace, survey, tracer, env) for w in names}
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
