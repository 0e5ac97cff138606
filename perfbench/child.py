"""One workload run in a fresh interpreter; prints one JSON result line.

    python3 perfbench/child.py --workload verify-default --seed 7 [--trace] [--setup-only]

Run from the root of a checkout with ``src`` on ``PYTHONPATH``; ``run.py``
starts this script once per sample.  The interpreter must be fresh: the
package's unbounded ``lru_cache`` stores would turn a second in-process run
into a cache-hit run, which ``mzvkit verify`` users never get.

``ready`` in the output is ``CLOCK_MONOTONIC`` right after ``import mzvkit``
and the inputs are built; the parent subtracts the time it started this
process to get the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mzvkit
import mzvkit.cli  # noqa: F401  imported as `mzvkit verify` imports it, so its cost is in setup_s
import numpy as np
import toolkit
from mzvkit import finite_sums, verification
from tracer import Tracer

WORKLOADS = ("verify-default", "verify-w4", "toolkit-calls")


def verify_inputs(workload: str, seed: int) -> verification.CampaignConfig:
    overrides = {"max_weight": 4} if workload == "verify-w4" else {}
    return verification.CampaignConfig(seed=seed, **overrides)


def harmonic_work(cfg: verification.CampaignConfig) -> int:
    """Σ depth × N of the exact sums the harmonic campaign evaluates at ``cfg``.

    The harmonic campaign is the only one whose inputs depend on the seed, and
    its time follows this count.  It is counted by running the campaign with
    ``finite_sums.zn_apply`` replaced by a counter that returns 0, so the pairs
    are drawn by ``verification``'s own code and only their harmonic products
    are computed.
    """
    work = 0

    def count(x, N, variant="plain"):
        nonlocal work
        work += N * sum(mzvkit.index_of_word(w).depth for w, _ in x.items())
        return Fraction(0)

    saved = finite_sums.zn_apply
    finite_sums.zn_apply = count
    try:
        verification.verify_harmonic(cfg)
    finally:
        finite_sums.zn_apply = saved
    return work


def run_verify(cfg: verification.CampaignConfig, out_dir: str, tracer=None) -> dict:
    """Run the campaigns one by one, then write the reports into ``out_dir``.

    ``run_all`` is not used: it raises at the first campaign that raises and
    discards the reports already finished.  Here a raising campaign is one
    failed operation and the rest still run and report.

    The latencies are those of the verification cases: every call of the
    check function a campaign hands to ``verification._map_cases``.  Nine
    unlike campaigns are too few for a distribution, and the median campaign
    switches between two campaigns from one sample to the next.
    """
    cfg = replace(cfg, out_dir=out_dir)

    def span():
        return tracer.span("verification") if tracer is not None else nullcontext()

    latencies: list[float] = []
    map_cases = verification._map_cases

    def timed_map_cases(cfg, func, items):
        def timed(item):
            t0 = time.perf_counter()
            try:
                return func(item)
            finally:
                latencies.append((time.perf_counter() - t0) * 1000.0)

        return map_cases(cfg, timed, items)

    reports, ops = [], []
    start = time.perf_counter()
    verification._map_cases = timed_map_cases
    try:
        for name, campaign, _ in verification.CAMPAIGNS:
            t0 = time.perf_counter()
            error = None
            try:
                with span():
                    done = campaign(cfg)
            except Exception:  # a raising campaign is a failed operation; the others still run
                done, error = [], traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            reports.extend(done)
            ok = error is None and all(r.verdict != "fail" for r in done)
            ops.append({"op": name, "ms": elapsed * 1000.0, "ok": ok, "error": error})
            if tracer is not None:
                tracer.counts[f"verification.{name}.s"] = elapsed
    finally:
        verification._map_cases = map_cases
    t0 = time.perf_counter()
    with span():
        verification.write_reports(reports, cfg)
        verification.write_summary(reports, cfg)
    write_s = time.perf_counter() - t0
    run_s = time.perf_counter() - start
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(Path(out_dir).iterdir())
    }
    cases = sum(len(r.cases) for r in reports)
    if tracer is not None:
        tracer.counts["verification.cases"] = cases
        tracer.counts["verification.report_write_s"] = write_s
    return {
        "run_s": run_s,
        "ops": ops,
        "latencies_ms": latencies,
        "results": cases,
        "wrong": [],
        "verdicts": {r.claim_id: r.verdict for r in reports},
        "digests": digests,
    }


def run_toolkit(calls: list[tuple]) -> dict:
    """Make the calls one after another: a closed loop with one caller."""
    results, ops = [], []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        error = None
        try:
            result = toolkit.execute(call)
        except Exception:  # a raising call is a failed operation; the stream goes on
            result, error = None, traceback.format_exc(limit=3)
        ops.append({"op": call[0], "ms": (time.perf_counter() - t0) * 1000.0, "ok": error is None, "error": error})
        results.append(result)
    run_s = time.perf_counter() - start
    return {"run_s": run_s, "ops": ops, "latencies_ms": [op["ms"] for op in ops], "results": results}


def finish_toolkit(calls: list[tuple], out: dict) -> dict:
    """Check the results after the timed loop; a call failing its check is a failed operation."""
    passed = toolkit.check(calls, out.pop("results"))
    wrong = []
    for call, op, ok in zip(calls, out["ops"], passed):
        if op["ok"] and not ok:
            wrong.append(f"{call!r} failed its check")
        op["ok"] = op["ok"] and ok
    out["results"] = sum(passed)
    out["wrong"] = wrong
    out["digests"] = {}
    out["verdicts"] = {}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "toolkit-calls":
        inputs = toolkit.make_stream(args.seed)
    else:
        inputs = verify_inputs(args.workload, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out: dict = {"ready": ready, "module": mzvkit.__file__}
    out["machine"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        if args.workload == "toolkit-calls":
            body = run_toolkit(inputs)
        else:
            with tempfile.TemporaryDirectory(prefix="reports-") as out_dir:
                body = run_verify(inputs, out_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.workload == "toolkit-calls":
        body = finish_toolkit(inputs, body)
    out.update(body)
    out["layers"] = tracer.metrics() if tracer is not None else None
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
