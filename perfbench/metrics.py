"""Arithmetic of the survey benchmark.

Order statistics over repeated samples, parsing of the `survey` binary's
output, span self time, and the reduction of a traced run's spans to the
per-layer metrics named in BENCHMARK.json. Pure functions only: run.py
does the process handling.
"""

import math
import statistics

# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them;
    a single value is its own quartiles."""
    vals = sorted(values)
    if not vals:
        raise ValueError("quartiles of no samples")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def tail_percentile(n, beyond=10):
    """The highest whole percentile p in [50, 99] with at least `beyond` of
    `n` samples above its nearest-rank value, or None when n is too small."""
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    vals = sorted(values)
    rank = max(1, math.ceil(p * len(vals) / 100))
    return vals[rank - 1]


def summarize(values):
    """Median, quartiles, sample count and the tail percentile (if any)."""
    q1, med, q3 = quartiles(values)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median (the benchmark's run-to-run spread)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Parsing the survey binary's output
# ---------------------------------------------------------------------------

BANNER_PREFIX = "survey: platform="


def parse_banner(line):
    """The config banner `survey: platform=haswell fidelity=quick ...` as a
    dict, or None when `line` is not the banner."""
    if not line.startswith(BANNER_PREFIX):
        return None
    return dict(kv.split("=", 1) for kv in line[len("survey: "):].split() if "=" in kv)


def parse_timings(stderr_text):
    """Per-experiment wall seconds from the `survey: <id> <wall> s` lines."""
    out = {}
    for line in stderr_text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "survey:" and parts[3] == "s":
            try:
                out[parts[1]] = float(parts[2])
            except ValueError:
                continue
    return out


def parse_scoreboard(stdout_text):
    """Rows of the scoreboard table keyed by experiment id; each row maps
    the column headers (`pts`, `reuse`, `sur`, `chk`, ...) to cell text."""
    rows = {}
    header = None
    for line in stdout_text.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            if cells and cells[0] == "experiment":
                header = cells
            continue
        if len(cells) == len(header):
            rows[cells[0]] = dict(zip(header, cells))
    return rows


def scoreboard_points(stdout_text):
    """Sweep points plus fleet members answered: the sum of the `pts`
    column."""
    return sum(int(r["pts"]) for r in parse_scoreboard(stdout_text).values())


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def dur(span):
    return span["end_ns"] - span["start_ns"]


def covered(intervals):
    """Total length of the union of half-open [start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def covered_within(span, children):
    """The part of `span` that its children cover (clipped to the span)."""
    lo, hi = span["start_ns"], span["end_ns"]
    clipped = [(max(c["start_ns"], lo), min(c["end_ns"], hi)) for c in children]
    return covered([(s, e) for s, e in clipped if e > s])


def self_time(span, children):
    """A span's duration minus the part of it its children cover."""
    return dur(span) - covered_within(span, children)


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


# ---------------------------------------------------------------------------
# Per-layer reduction
# ---------------------------------------------------------------------------


def _attr(span, key):
    v = span["attrs"].get(key)
    return 0.0 if v is None else v


def _mean_dur(spans, scale):
    return ratio(sum(dur(s) for s in spans) / scale, len(spans))


def _per_unit(spans, key, scale):
    return ratio(sum(dur(s) for s in spans) / scale, sum(_attr(s, key) for s in spans))


def experiment_metrics(exp_spans, ids):
    """`experiments.<id>.*` and the `RunCtx` counters of the experiment
    phase, for every id in `ids` (0 for an id the workload does not run)."""
    out = {}
    for eid in ids:
        mine = [s for s in exp_spans if s["label"] == eid]
        out[f"experiments.{eid}.wall_s"] = sum(dur(s) for s in mine) / 1e9
        out[f"experiments.{eid}.sim_s"] = sum(_attr(s, "sim_s") for s in mine)
    tot = {k: sum(_attr(s, k) for s in exp_spans)
           for k in ("points", "reuses", "surrogate_hits", "spot_checks")}
    out["survey.points"] = tot["points"]
    out["survey.reuse_ratio"] = ratio(tot["reuses"], tot["points"])
    out["survey.spotcheck_ratio"] = ratio(tot["spot_checks"], tot["surrogate_hits"])
    return out


def layer_metrics(spans):
    """Every per-layer metric the layer exercises' spans measure. A metric
    whose layer made no call on this workload reads 0."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    kids = children_of(spans)
    out = {}

    sweeps = named("sweep")
    sweep_ns = sum(dur(s) for s in sweeps)
    self_ns = sum(self_time(s, kids.get(s["id"], [])) for s in sweeps)

    def share(kind):
        """Share of sweep time covered by the `kind` closures."""
        return ratio(sum(covered_within(s, [c for c in kids.get(s["id"], []) if c["name"] == kind])
                         for s in sweeps), sweep_ns)

    out["survey.sweep_self_us_per_point"] = ratio(self_ns / 1e3, sum(_attr(s, "points") for s in sweeps))
    out["survey.warmup_share"] = share("warmup")
    out["survey.spotcheck_share"] = share("spotcheck")

    adv = named("node.advance")
    full = sum(_attr(s, "full") for s in adv)
    light = sum(_attr(s, "light") for s in adv)
    lim = [s for s in adv if _attr(s, "limited")]
    pure_full = [s for s in adv if _attr(s, "light") == 0 and _attr(s, "full") > 0]
    pure_light = [s for s in adv if _attr(s, "full") == 0 and _attr(s, "light") > 0]
    out["node.full_steps"] = full
    out["node.light_steps"] = light
    out["node.light_fraction"] = ratio(light, full + light)
    out["node.limited_step_share"] = ratio(sum(_attr(s, "full") + _attr(s, "light") for s in lim), full + light)
    out["node.limited_time_share"] = ratio(sum(dur(s) for s in lim), sum(dur(s) for s in adv))
    out["node.full_step_limited_us"] = _per_unit([s for s in pure_full if _attr(s, "limited")], "full", 1e3)
    out["node.full_step_free_us"] = _per_unit([s for s in pure_full if not _attr(s, "limited")], "full", 1e3)
    out["node.light_step_ns"] = _per_unit(pure_light, "light", 1.0)
    out["node.build_us"] = _mean_dur(named("node.build"), 1e3)
    out["node.restore_us"] = _mean_dur(named("node.restore"), 1e3)
    out["node.fork_us"] = _mean_dur(named("node.fork"), 1e3)
    out["node.snapshot_us"] = _mean_dur(named("node.snapshot"), 1e3)
    out["node.planes_per_fork"] = ratio(sum(_attr(s, "planes") for s in named("node.fork")), len(named("node.fork")))

    solves = named("pcu.solve")
    out["pcu.solve_limited_us"] = _per_unit([s for s in solves if _attr(s, "limited")], "calls", 1e3)
    out["pcu.solve_free_us"] = _per_unit([s for s in solves if not _attr(s, "limited")], "calls", 1e3)

    pred = named("analytic.predict")
    capped = [s for s in pred if _attr(s, "limited")]
    out["analytic.predict_capped_us"] = _mean_dur(capped, 1e3)
    out["analytic.predict_free_us"] = _mean_dur([s for s in pred if not _attr(s, "limited")], 1e3)
    out["analytic.for_chip_us"] = _mean_dur(named("analytic.for_chip"), 1e3)
    out["analytic.capped_share"] = ratio(len(capped), len(pred))
    out["analytic.capped_time_share"] = ratio(sum(dur(s) for s in capped), sum(dur(s) for s in pred))

    out["fleet.sample_ns"] = _per_unit(named("fleet.sample"), "calls", 1.0)
    out["fleet.apply_ns"] = _per_unit(named("fleet.apply"), "calls", 1.0)
    out["fleet.spread_ns_per_value"] = _per_unit(named("fleet.spread"), "values", 1.0)

    out["tools.perfctr_ns"] = _mean_dur([s for s in named("tools.perfctr") if s["label"] == "sample+derive"], 1.0)
    out["tools.ftalat_us_per_sample"] = _per_unit(named("tools.ftalat"), "samples", 1e3)
    out["tools.cstate_wake_us_per_sample"] = _per_unit(named("tools.cstate"), "wakes", 1e3)
    return out
