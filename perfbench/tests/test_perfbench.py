"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import importlib
import json
import os
import sys

import pytest

import refclock
import run
import tracer
import workloads
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- tail percentile ----------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_latency(list(range(1, 101))) == (90, 90.0, 10)
    assert run.tail_latency(list(range(1000, 0, -1))) == (990, 99.0, 10)
    value, pct, beyond = run.tail_latency([5.0] * 10 + [1.0] * 20 + [9.0] * 10)
    assert (value, beyond) == (5.0, 10) and pct == pytest.approx(100 * 30 / 40)


def test_tail_of_fewer_than_eleven_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail_latency([4.0] * 11) == (4.0, 100 / 11, 10)
    with pytest.raises(ValueError):
        run.tail_latency([])


def test_latency_metrics_take_medians_over_rounds_then_ops():
    got = run.latency_metrics([[1.0, 2.0, 9.0], [3.0, 2.0, 1.0], [2.0, 5.0, 3.0]])
    # per-op medians 2, 2, 3; round sums 12, 6, 10
    assert got == {"ops_per_s": 3 / 10.0, "op_p50_s": 2.0, "op_tail_s": 3.0,
                   "tail": (100.0, 0)}


# -- reference speed ----------------------------------------------------------


def test_scale_divides_by_the_nearby_median_reference_time():
    nominal = refclock.NOMINAL_S
    # a CPU running at half the reference speed doubles both
    assert refclock.scale([0.4, 0.6], [2 * nominal] * 3) == pytest.approx([0.2, 0.3])
    # one slow reference loop beside an op does not move it
    refs = [nominal] * 3 + [5 * nominal] + [nominal] * 3
    assert refclock.scale([0.1] * 6, refs) == pytest.approx([0.1] * 6)
    with pytest.raises(ValueError):
        refclock.scale([0.1, 0.2], [nominal] * 2)


def test_reference_loop_takes_about_the_nominal_time():
    best = min(refclock.reference_s() for _ in range(20))
    assert refclock.NOMINAL_S / 10 < best < refclock.NOMINAL_S * 10


# -- tracer arithmetic --------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    def mid():
        clock.t += 1.0
        leaf_w()
        clock.t += 3.0
        leaf_w()

    def top():
        clock.t += 0.5
        mid_w()
        clock.t += 0.5

    def rec(n):
        clock.t += 1.0
        if n:
            rec_w(n - 1)

    leaf_w = tr.wrap(leaf, "weights.leaf", "weights")
    mid_w = tr.wrap(mid, "symfunc.mid", "symfunc")
    top_w = tr.wrap(top, "rewrite.top", "rewrite")
    rec_w = tr.wrap(rec, "kostka.rec", "kostka")
    tr.begin_op(7, "op")
    top_w()
    rec_w(2)
    tr.end_op()
    stats = tr.function_stats()
    assert stats["rewrite.top"] == {"calls": 1, "incl_s": 9.0, "self_s": 1.0}
    assert stats["symfunc.mid"] == {"calls": 1, "incl_s": 8.0, "self_s": 4.0}
    assert stats["weights.leaf"] == {"calls": 2, "incl_s": 4.0, "self_s": 4.0}
    # recursion: inclusive time counts the outermost call only
    assert stats["kostka.rec"] == {"calls": 3, "incl_s": 3.0, "self_s": 3.0}

    spans = {name: (sid, parent, op, start, end)
             for sid, parent, op, name, start, end in tr.spans}
    op_id = spans["op"][0]
    assert spans["op"][1:] == (None, 7, 0.0, 12.0)
    assert spans["rewrite.top"][1:] == (op_id, 7, 0.0, 9.0)
    assert spans["symfunc.mid"][1] == spans["rewrite.top"][0]
    # hot layers keep counters only; a call inside its own module adds no span
    assert "weights.leaf" not in spans
    assert [s[3] for s in tr.spans].count("kostka.rec") == 1


def test_a_raising_call_still_unwinds():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def boom():
        clock.t += 1.0
        raise KeyError("x")

    boom_w = tr.wrap(boom, "cli.boom", "cli")
    with pytest.raises(KeyError):
        boom_w()
    assert tr.function_stats()["cli.boom"]["self_s"] == 1.0
    assert not tr._stack


# -- wrapping and restoring ---------------------------------------------------


def _namespaces():
    mods = [importlib.import_module("hlvertex." + m) for m in tracer.MODULES]
    coeffs = sys.modules["hlvertex.coeffs"]
    return [sys.modules["hlvertex"]] + mods + [coeffs.QPoly, coeffs.QRat]


def test_uninstall_restores_every_wrapped_function():
    spaces = _namespaces()
    before = [dict(vars(ns)) for ns in spaces]
    symfunc, vertexop = sys.modules["hlvertex.symfunc"], sys.modules["hlvertex.vertexop"]
    original = symfunc.schur_product_expansion
    tr = tracer.Tracer()
    tr.install()
    try:
        # one wrapper for a function bound in two module namespaces
        assert symfunc.schur_product_expansion is not original
        assert symfunc.schur_product_expansion is vertexop.schur_product_expansion
        coeffs = sys.modules["hlvertex.coeffs"]
        assert coeffs.QRat.q() + coeffs.QRat.one() == coeffs.QRat(
            coeffs.QPoly({0: 1, 1: 1}))
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    assert tr.function_stats()["coeffs.QRat.__add__"]["calls"] == 1
    for ns, old in zip(spaces, before):
        now = vars(ns)
        assert now.keys() == old.keys()
        assert all(now[k] is v for k, v in old.items()), ns


# -- seeds and op lists -------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determinism(workload):
    ops = workloads.generate(workload, 11)
    again = workloads.generate(workload, 11)
    other = workloads.generate(workload, 12)
    assert ops == again and workloads.digest(ops) == workloads.digest(again)
    assert workloads.digest(other) != workloads.digest(ops)
    assert len(other) == len(ops)
    assert workloads.mix(other) == workloads.mix(ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_has_the_full_mix(workload):
    ops = workloads.generate(workload, 5)
    strata = workloads._LAYOUT[workload][0]()
    size = sum(count for _, count, _ in strata)
    want = {name: count for name, count, _ in strata}
    for start in range(0, len(ops), size):
        assert workloads.mix(ops[start:start + size]) == want


# -- correctness gate ---------------------------------------------------------


def test_rewrite_certificate_catches_a_wrong_output():
    from hlvertex.rewrite import rewrite_dominant

    word = [[2, 2], [4, 1]]
    terms = rewrite_dominant(((2, 2), (4, 1))).to_json()["terms"]
    wrong = terms[1:]
    got = worker.certify_rewrites([{"word": word, "terms": terms},
                                   {"word": word, "terms": wrong}], 1)
    assert got == [True, False]


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracer.LAYER_METRICS.items()}
