"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

import child
import run
import toolkit
import tracer
from mzvkit import algebra, verification

# a small configuration that still runs every campaign
SMALL = dict(max_weight=2, msw_max_weight=3, harmonic_pairs=10, harmonic_weight=3, harmonic_n=30)


def small_cfg(seed: int = 5) -> verification.CampaignConfig:
    return verification.CampaignConfig(seed=seed, **SMALL)


def test_toolkit_stream_is_deterministic_in_its_seed():
    stream = toolkit.make_stream(5)
    assert stream == toolkit.make_stream(5)
    assert stream != toolkit.make_stream(6)
    kinds = [call[0] for call in stream]
    assert {kind: kinds.count(kind) for kind in toolkit.MIX} == toolkit.MIX
    mzv_parts = {call[1] for call in stream if call[0] == "mzv"}
    assert len(mzv_parts) == toolkit.MIX["mzv"]  # distinct, so every mzv call is cold
    for parts in mzv_parts:
        assert parts in toolkit.CLOSED_FORMS or toolkit.dual(algebra.Index(parts)).parts in mzv_parts


def test_toolkit_checks_accept_results_and_reject_a_wrong_one():
    stream = toolkit.make_stream(3)
    calls = [next(c for c in stream if c[0] == kind) for kind in toolkit.MIX]
    calls += [c for c in stream if c[0] == "mzv" and c[1] == toolkit.dual(algebra.Index(calls[3][1])).parts]
    calls.append(("sum", "plain", (1, 2), 30))
    results = [toolkit.execute(call) for call in calls]
    assert all(toolkit.check(calls, results))
    results[-1] += Fraction(1, 10 ** 9)
    assert toolkit.check(calls, results)[-1] is False
    assert toolkit.check(calls, results[:-1] + [None])[-1] is False


def test_traced_and_untraced_runs_write_identical_reports(tmp_path):
    plain = child.run_verify(small_cfg(), str(tmp_path / "plain"))
    t = tracer.Tracer()
    original = algebra.harmonic
    t.install()
    try:
        assert verification.harmonic is not original  # the by-name binding is wrapped too
        traced = child.run_verify(small_cfg(), str(tmp_path / "traced"), t)
    finally:
        t.uninstall()
    assert verification.harmonic is original and algebra.harmonic is original
    assert plain["digests"] == traced["digests"]
    # one latency per case check, in the untraced and the traced run alike
    assert 0 < len(plain["latencies_ms"]) == len(traced["latencies_ms"]) <= plain["results"]
    assert verification._map_cases.__name__ == "_map_cases"  # restored
    assert len(plain["digests"]) == len(verification.CLAIM_IDS) - len(verification.OUT_OF_SCOPE_CLAIMS) + 1
    layers = t.metrics()
    assert set(layers) == set(tracer.METRICS)
    assert layers["verification.cases"] == traced["results"]
    assert layers["finite_sums.exact.calls"] > 0 and layers["algebra.harmonic.calls"] > 0
    assert layers["numeric.mzv.calls"] > 0 and layers["numeric.fit.calls"] > 0


def test_raising_campaign_is_counted_without_stopping_the_others(tmp_path, monkeypatch):
    def broken(cfg):
        raise RuntimeError("made to raise")

    campaigns = list(verification.CAMPAIGNS)
    name, _, claims = campaigns[2]
    campaigns[2] = (name, broken, claims)
    monkeypatch.setattr(verification, "CAMPAIGNS", tuple(campaigns))
    out = child.run_verify(small_cfg(), str(tmp_path))
    assert [op["ok"] for op in out["ops"]] == [i != 2 for i in range(len(campaigns))]
    assert "made to raise" in out["ops"][2]["error"]
    assert set(out["verdicts"]) == set(verification.CLAIM_IDS) - set(claims) - set(verification.OUT_OF_SCOPE_CLAIMS)

    out.update(seed=5, layers=None, setup_s=0.1, peak_rss_mb=50.0)
    _, attempted, failed, problems = run.summarize([out], [], [0.1])
    assert (attempted, failed) == (len(campaigns), 1)
    assert problems == []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(200)]
    assert run.tail(values) == (189.0, 95.0)
    assert run.tail(values[:9]) == (8.0, 100.0)


def test_summarize_flags_differing_digests_and_fail_verdicts():
    base = {"ops": [{"op": "a", "ms": 1.0, "ok": True}], "latencies_ms": [1.0], "results": 1, "run_s": 1.0,
            "setup_s": 0.1, "peak_rss_mb": 1.0, "wrong": [], "seed": 1, "layers": None, "verdicts": {"a": "pass"}}
    first = dict(base, digests={"a.json": "x"})
    same = dict(base, digests={"a.json": "x"})
    traced_same = dict(same, layers={})
    other = dict(base, digests={"a.json": "y"})
    other_input = dict(base, seed=2, digests={"a.json": "y"})
    assert run.summarize([first, same, other_input], [traced_same], [0.1])[3] == []
    assert len(run.summarize([first, other], [traced_same], [0.1])[3]) == 1
    assert len(run.summarize([first], [dict(other, layers={})], [0.1])[3]) == 1
    failing = dict(first, verdicts={"a": "fail"})
    assert run.summarize([failing], [], [0.1])[3] == ["seed 1: a verdict fail"]


def test_metrics_are_the_quartile_of_the_least_slowed_samples_and_the_pooled_median():
    def out(run_s):
        ops = [{"op": "a", "ms": run_s * 100, "ok": True}, {"op": "b", "ms": run_s * 900, "ok": True}]
        return {"ops": ops, "latencies_ms": [op["ms"] for op in ops], "results": 10, "run_s": run_s,
                "peak_rss_mb": 1.0, "wrong": [], "seed": 1, "layers": None, "verdicts": {}, "digests": {}}
    # the two slow samples stand for a burst of host load: they move no
    # metric but op_p50_ms, the median of all twelve latencies of the run
    samples = [out(1.0), out(1.2), out(9.0), out(1.0), out(1.0), out(7.0)]
    metrics, attempted, _, _ = run.summarize(samples, [], [0.3, 0.1, 0.2])
    assert metrics["run_s"] == pytest.approx(1.0)
    assert metrics["results_per_s"] == pytest.approx(10.0)
    assert metrics["op_p50_ms"] == pytest.approx(900.0)
    assert metrics["op_tail_ms"] == pytest.approx(900.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert attempted == 12
    assert run.summarize([out(2.0)], [], [0.1])[0]["run_s"] == 2.0


def test_input_seeds_are_fixed_by_the_seed():
    seeds = run.input_seeds("toolkit-calls", 7)
    assert seeds == run.input_seeds("toolkit-calls", 7) != run.input_seeds("toolkit-calls", 8)
    assert seeds[0] == 7 and len(set(seeds)) == run.INPUTS_PER_RUN["toolkit-calls"]


def test_verify_inputs_are_the_seeds_of_median_harmonic_work():
    seeds = run.input_seeds("verify-w4", 7)
    assert seeds == run.input_seeds("verify-w4", 7) != run.input_seeds("verify-w4", 8)
    count = run.INPUTS_PER_RUN["verify-w4"]
    assert len(set(seeds)) == count
    rng = random.Random(7)
    candidates = [7] + [rng.randrange(1 << 31) for _ in range(run.CANDIDATES - 1)]
    work = sorted(child.harmonic_work(child.verify_inputs("verify-w4", s)) for s in candidates)
    chosen = [child.harmonic_work(child.verify_inputs("verify-w4", s)) for s in seeds]
    middle = (run.CANDIDATES - count) // 2
    assert work[middle] <= min(chosen) and max(chosen) <= work[middle + count - 1]


def test_harmonic_work_is_the_exact_dp_work_of_the_harmonic_campaign():
    cfg = small_cfg()
    work = child.harmonic_work(cfg)
    t = tracer.Tracer()
    t.install()
    try:
        verification.verify_harmonic(cfg)
    finally:
        t.uninstall()
    assert work == t.metrics()["finite_sums.exact.chain_n"] > 0


def test_time_shares_add_up_per_operation_name():
    out = {"ops": [{"op": "a", "ms": 1.0}, {"op": "b", "ms": 3.0}, {"op": "a", "ms": 4.0}]}
    assert run.time_shares([out, out]) == {"a": 0.625, "b": 0.375}


def test_tracer_refuses_a_missing_function(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "numeric.li", ("numeric", ("li_value", "no_such_function")))
    original = algebra.harmonic
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        tracer.Tracer().install()
    assert algebra.harmonic is original and verification.harmonic is original  # nothing was patched


def test_tracer_refuses_a_hooked_argument_the_function_lacks(monkeypatch):
    t = tracer.Tracer()
    hooks = t._hooks()
    arg_names, count, after = hooks["nested_sum_limit"]
    monkeypatch.setattr(t, "_hooks", lambda: {**hooks, "nested_sum_limit": (("no_such_argument",), count, after)})
    with pytest.raises(tracer.TracerError, match="no_such_argument"):
        t.install()


@pytest.mark.parametrize("workload", ["verify-default", "verify-w4"])
def test_verify_inputs_use_the_seed(workload):
    cfg = child.verify_inputs(workload, 11)
    assert cfg.seed == 11
    assert dataclasses.replace(cfg, seed=verification.CampaignConfig().seed, max_weight=3) == verification.CampaignConfig()
