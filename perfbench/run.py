"""Cold-process benchmark for mzvkit.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Each sample is a fresh interpreter running
``perfbench/child.py`` with ``src`` on its path, one at a time, so that no
sample inherits another's ``lru_cache`` contents.  A run measures
``INPUTS_PER_RUN[workload]`` inputs made from ``--seed``
(:func:`input_seeds`), and the samples take them in turn; the number of
samples a run fits into ``--seconds`` changes how often each input is
measured, never which inputs are.

A run first starts ``SETUP_PROBES`` interpreters that only set up, then
workload samples until every input has run and the next sample would end
after ``--seconds``.  All of it runs pinned to one CPU.  With ``--trace 1``
samples alternate untraced and traced; the traced ones give the per-layer
metrics.  Every sample of one input must write the same reports, traced or
not.  ``setup_s`` is the median of all set-ups and ``op_p50_ms`` the median
of all latencies of the untraced samples.  Every other metric is computed
per untraced sample and reported as the quartile of the samples least slowed
by the host: the lower quartile of a time or a size, the upper quartile of a
rate (:func:`summarize`).

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines before
it restate every metric with its unit, the machine, the verdicts and the
sha256 of each report.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-default", "verify-w4", "toolkit-calls")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end well within 180 s, whatever a sample does
# inputs per run: eight, because the median call of a toolkit-calls stream
# varies between seeds with a coefficient of variation of about 0.15; four for
# verify-w4, whose samples take 8-9 s, so that a traced run, which runs every
# input untraced and traced, ends within RUN_LIMIT_S
INPUTS_PER_RUN = {"verify-default": 8, "verify-w4": 4, "toolkit-calls": 8}
# candidate seeds of a verify run; its inputs are the ones of median harmonic work
CANDIDATES = 64

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "results_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sample(args: list[str], env: dict, timeout: float) -> dict:
    """Start one fresh interpreter, wait for it, and return its parsed result."""
    started = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample {args} did not finish within {timeout:.0f} s") from exc
    wall = monotonic() - started
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"sample {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not Path(out["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"sample imported mzvkit from {out['module']}, not from {ROOT / 'src'}")
    out["setup_s"] = out["ready"] - started
    out["wall_s"] = wall
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def input_seeds(workload: str, seed: int) -> list[int]:
    """The seeds of the run's ``INPUTS_PER_RUN[workload]`` inputs, made from ``seed``.

    A ``toolkit-calls`` stream draws its operands inside fixed strata, so
    streams of different seeds cost about the same: the inputs are ``seed``
    and seeds drawn from it.  For the verify workloads the seed only draws
    the harmonic campaign's pairs, and their exact-DP work
    (``child.harmonic_work``) sets that campaign's time, which is about half
    of a ``verify-default`` sample and varies by a factor 2 between seeds.  So
    ``CANDIDATES`` seeds are drawn from ``seed`` and the inputs are the ones
    of median work: every run measures inputs of typical cost.
    """
    count = INPUTS_PER_RUN[workload]
    rng = random.Random(seed)
    candidates = [seed] + [rng.randrange(1 << 31) for _ in range(CANDIDATES - 1)]
    if workload == "toolkit-calls":
        return candidates[:count]
    import child  # imports mzvkit, from src/ (``run`` puts it on the path)

    work = {s: child.harmonic_work(child.verify_inputs(workload, s)) for s in candidates}
    middle = (CANDIDATES - count) // 2
    return sorted(candidates, key=lambda s: (work[s], s))[middle:middle + count]


def quartiles(values) -> list[float]:
    """Lower quartile, median and upper quartile, within the values' range."""
    values = list(values)
    return values * 3 if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")


def sample_metrics(out: dict) -> dict:
    return {
        "run_s": out["run_s"],
        "results_per_s": out["results"] / out["run_s"],
        "op_tail_ms": tail(out["latencies_ms"])[0],
        "peak_rss_mb": out["peak_rss_mb"],
    }


def time_shares(plain: list[dict]) -> dict[str, float]:
    """Each operation name's share of the summed operation time of the samples."""
    by_op: dict[str, float] = {}
    for out in plain:
        for op in out["ops"]:
            by_op[op["op"]] = by_op.get(op["op"], 0.0) + op["ms"]
    total = sum(by_op.values())
    return {name: round(ms / total, 4) for name, ms in by_op.items()}


def first_of_each_input(samples: list[dict]) -> dict[int, dict]:
    first: dict[int, dict] = {}
    for out in samples:
        first.setdefault(out["seed"], out)
    return first


def summarize(plain: list[dict], traced: list[dict], setups: list[float]) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics, operation counts and output problems of one run's samples.

    ``setup_s`` is the median of all set-ups and ``op_p50_ms`` the median of
    all latencies of the untraced samples: over six runs of each workload on
    a shared 2-core host, that median spread by 0.03-0.04 of itself, and the
    lower quartile of the samples' medians by 0.08-0.09.  The host only ever
    adds time to a sample, and it does so in bursts that can last a good
    part of a run, so every other metric is the quartile of its per-sample
    values on the side of the least slowed samples: the lower quartile of a
    time or a size, the upper quartile of ``results_per_s``.
    The samples take the inputs in turn, so every input has the same share
    of them, give or take one.
    """
    per_sample = [sample_metrics(out) for out in plain]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(ms for out in plain for ms in out["latencies_ms"]),
    }
    for name in per_sample[0]:
        low, _, high = quartiles(m[name] for m in per_sample)
        metrics[name] = high if name == "results_per_s" else low
    metrics = {name: metrics[name] for name in END_TO_END}
    everything = plain + traced
    attempted = sum(len(out["ops"]) for out in everything)
    failed = sum(not op["ok"] for out in everything for op in out["ops"])
    problems = [line for out in everything for line in out["wrong"]]
    first = first_of_each_input(plain)
    problems += [f"seed {seed}: {claim} verdict fail"
                 for seed, out in first.items() for claim, verdict in out["verdicts"].items() if verdict == "fail"]
    # the samples of one input, traced or not, must write the same reports
    for out in everything:
        if out["digests"] != first[out["seed"]]["digests"]:
            kind = "traced" if out["layers"] is not None else "untraced"
            problems.append(f"seed {out['seed']}: a {kind} sample wrote other reports than the first sample")
    return metrics, attempted, failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run the samples of one benchmark run; returns the result object and report lines."""
    if not (ROOT / "src" / "mzvkit" / "__init__.py").is_file():
        raise BenchError(f"no mzvkit sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    # one CPU for every sample, so that no sample migrates between CPUs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start = monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (monotonic() - start)

    def argv(s: int) -> list[str]:
        return ["--workload", workload, "--seed", str(s)]

    seeds = input_seeds(workload, seed)
    setups = []
    for i in range(SETUP_PROBES):
        setups.append(sample(argv(seeds[i % len(seeds)]) + ["--setup-only"], env, remaining())["setup_s"])
    plain: list[dict] = []
    traced: list[dict] = []
    longest = {False: 0.0, True: 0.0}
    while True:
        is_traced = trace and len(plain) > len(traced)
        # stop only once every input has run (traced too), whatever the time
        if (not is_traced and len(plain) >= len(seeds)
                and monotonic() - start + longest[False] + trace * longest[True] > seconds):
            break
        s = seeds[(len(traced) if is_traced else len(plain)) % len(seeds)]
        out = sample(argv(s) + (["--trace"] if is_traced else []), env, remaining())
        out["seed"] = s
        longest[is_traced] = max(longest[is_traced], out["wall_s"])
        (traced if is_traced else plain).append(out)
        setups.append(out["setup_s"])

    metrics, attempted, failed, problems = summarize(plain, traced, setups)
    first = first_of_each_input(plain)
    n_ops = len(plain[0]["latencies_ms"])
    _, pct = tail(plain[0]["latencies_ms"])
    kind = "calls" if workload == "toolkit-calls" else "verification cases"
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "op_p50_ms": f"median of all {n_ops * len(plain)} {kind} of the untraced samples",
        "op_tail_ms": f"p{pct:.4g} of {n_ops} {kind} per sample",
    }
    machine = plain[0]["machine"]
    lines = [
        f"machine: nproc={os.cpu_count()} python={machine['python']} numpy={machine['numpy']} "
        f"longdouble_eps={machine['longdouble_eps']}",
        f"workload {workload}, seed {seed}: inputs of seeds {seeds}; {len(plain)} untraced + {len(traced)} "
        f"traced samples, each a fresh interpreter; run_s, op_tail_ms and peak_rss_mb are the lower "
        f"quartile over the untraced samples, results_per_s the upper quartile",
    ]
    for name, unit in END_TO_END.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {metrics[name]:.6g} {unit}{note}")
    lines.append(f"ops_failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    lines.append("share of operation time by operation: " + json.dumps(time_shares(plain)))
    for s, out in first.items():
        for op in out["ops"]:
            if op["error"]:
                lines.append(f"failed op {op['op']} (seed {s}): {op['error'].strip().splitlines()[-1]}")
    lines += [f"problem: {p}" for p in problems]
    lines.append("verdicts " + json.dumps({s: out["verdicts"] for s, out in first.items()}, sort_keys=True))
    lines.append("digests " + json.dumps({s: out["digests"] for s, out in first.items()}, sort_keys=True))

    if trace:
        layer_metrics = {
            name: statistics.median(out["layers"][name] for out in traced) for name in tracer.METRICS
        }
        layer_metrics["trace.overhead_s"] = (
            quartiles(out["run_s"] for out in traced)[0] - quartiles(out["run_s"] for out in plain)[0]
        )
        units = {**tracer.METRICS, "trace.overhead_s": "s"}
        lines += [f"{name} {value:.6g} {units[name]}" for name, value in layer_metrics.items()]
        reported = {name: {"value": value, "unit": units[name]} for name, value in layer_metrics.items()}
    else:
        reported = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": reported}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
