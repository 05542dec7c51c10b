"""Tests of the benchmark itself: every output check must be able to fail.

Run from the repository root, either way:

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py

For each kind of check there is a negative test that plants an error of
1e-6 (a lower bound above the exact union, an LP value moved, ...) and
requires a failure, next to the unchanged value, which must pass.  The
workload tests do the same on records made by running real cases.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import unionbounds as ub  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NUDGE = 1e-6


def fails(fn, *args) -> bool:
    """True when the check rejects these arguments."""
    ck = checks.Checks()
    getattr(ck, fn)("planted", *args)
    return not ck.ok


# -- each check on its own ----------------------------------------------

def test_exact_union_check():
    assert not fails("exact_union", 0.75, 0.75)
    assert fails("exact_union", 0.75 + NUDGE, 0.75)


def test_partial_info_check():
    ref = np.array([[0.5, 0.2], [0.2, 0.4]])
    moved = ref.copy()
    moved[1, 0] += NUDGE
    assert not fails("partial_info", ref.tolist(), ref)
    assert fails("partial_info", moved.tolist(), ref)
    assert fails("partial_info", ref[0].tolist(), ref)  # wrong shape


def test_lower_bound_check():
    assert not fails("lower", 0.6, 0.6)
    assert fails("lower", 0.6 + NUDGE, 0.6)


def test_upper_bound_check():
    assert not fails("upper", 0.6, 0.6)
    assert fails("upper", 0.6 - NUDGE, 0.6)


def test_identity_check():
    assert not fails("identity", 0.6 + 1e-13, 0.6)
    assert fails("identity", 0.6 + NUDGE, 0.6)


def test_oracle_check():
    assert not fails("oracle", 0.5, 0.5)
    assert fails("oracle", 0.5 + NUDGE, 0.5)


def test_lp_check():
    assert not fails("lp", 0.8, 0.8)
    assert fails("lp", 0.8 + NUDGE, 0.8)
    assert fails("lp", 0.8 - NUDGE, 0.8)


def test_chain_check():
    good = [("a", 0.1), ("b", 0.2), ("c", 0.2)]
    assert not fails("chain", good)
    assert fails("chain", [("a", 0.1), ("b", 0.2 + NUDGE), ("c", 0.2)])


def test_dominance_check():
    assert not fails("dominates", 0.5, 0.5)
    assert fails("dominates", 0.5 - NUDGE, 0.5)


def test_mean_ratio_check():
    assert not fails("mean_ratio", 1.0)
    assert fails("mean_ratio", 1.0 - NUDGE)
    assert fails("mean_ratio", None)


def test_fptas_check():
    assert not fails("fptas", 0.49, 0.5, 0.02)
    assert fails("fptas", 0.5 + NUDGE, 0.5, 0.02)
    assert fails("fptas", 0.48 - NUDGE, 0.5, 0.02)


def test_report_check():
    assert not fails("equal", 1000, 1000)
    assert fails("equal", 999, 1000)


def test_repeat_check():
    first = {"lnew3": 0.5, "lnew4": 0.52}
    assert not fails("repeat", dict(first), first)
    assert fails("repeat", {"lnew3": 0.5 + NUDGE, "lnew4": 0.52}, first)


# -- the references ------------------------------------------------------

def test_lnew3_oracle_matches_the_closed_form_on_two_events():
    # Two events: the selection bound is exact, so it is the union.
    atoms = {1: 0.3, 2: 0.2, 3: 0.2}
    alpha, pairwise = oracles.partial_info(2, atoms)
    for c in ([1.0, 1.0], [0.3, 0.9], [1.0, -0.25]):
        assert abs(oracles.lnew3(alpha, pairwise, np.array(c)) - 0.7) < 1e-12


def test_inclass_lp_reference_is_exact_on_disjoint_events():
    atoms = {1: 0.1, 2: 0.2, 4: 0.3}
    alpha, pairwise = oracles.partial_info(3, atoms)
    for sense in ("lower", "upper"):
        assert abs(oracles.inclass_lp(alpha, pairwise, np.ones(3), sense) - 0.6) < 1e-12


# -- the checks as the workloads wire them -------------------------------

def _records(workload, count):
    out = []
    for case in workload.cases(0)[:count]:
        record, _ = workload.keep(case, workload.run(case))
        out.append(record)
    return out


def _failures(workload, records):
    ck = checks.Checks()
    workload.check(records, ck)
    return ck.failures


def test_battery_checks_catch_planted_errors():
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.BatteryCorpus(0, Path(tmp))
        records = _records(wl, 6)  # n = 2, 3, 4 in both models
    assert _failures(wl, records) == []
    plants = (
        ("validity", lambda v, e: v.update(dc=e + NUDGE)),
        ("validity", lambda v, e: v.update(unew5=e - NUDGE)),
        ("identity", lambda v, e: v.update(identity_mixed=v["identity_mixed"] + NUDGE)),
        ("lnew3_oracle", lambda v, e: v.update(lnew3_mixed=v["lnew3_mixed"] - NUDGE)),
        ("fptas", lambda v, e: v.update(lnew4_fptas=v["lnew4"] + NUDGE)),
        ("lnew4_ge_lnew3", lambda v, e: v.update(lnew4=v["lnew3"] - NUDGE)),
    )
    for kind, plant in plants:
        bad = copy.deepcopy(records)
        plant(bad[3]["outputs"], bad[3]["exact"])
        found = _failures(wl, bad)
        assert any(f.startswith(kind) for f in found), (kind, found)


def test_inclass_checks_catch_planted_errors():
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.InclassLp(0, Path(tmp))
        records = _records(wl, 1)  # one n = 8 space
    assert _failures(wl, records) == []
    for key in ("opt_lower[ones]", "opt_upper[rand]"):
        bad = copy.deepcopy(records)
        bad[0]["outputs"][key] += NUDGE
        assert any(f.startswith("lp_highs") for f in _failures(wl, bad)), key


class _ShortCompare(workloads.CompareReadme):
    TRIALS = 20


def test_compare_checks_catch_planted_errors():
    with tempfile.TemporaryDirectory() as tmp:
        wl = _ShortCompare(0, Path(tmp))
        records = _records(wl, 1)
    assert _failures(wl, records) == []

    def bound(lines, name):
        return next(x for x in lines if x.get("name") == name)

    def stats(lines):
        return next(x for x in lines if x["record"] == "stats")

    plants = {
        "exact_union": lambda ls: ls[0].update(exact_union=ls[0]["exact_union"] + NUDGE),
        "partial_info": lambda ls: ls[0]["alpha"].__setitem__(0, ls[0]["alpha"][0] + NUDGE),
        "lnew3_oracle": lambda ls: bound(ls, "lnew3[rand]").update(
            value=bound(ls, "lnew3[rand]")["value"] - NUDGE),
        "lp_highs": lambda ls: bound(ls, "opt_lower").update(
            value=bound(ls, "opt_lower")["value"] - NUDGE),
        "validity": lambda ls: bound(ls, "dc").update(value=wl.exact + NUDGE),
        "mean_ratio": lambda ls: stats(ls).update(mean_ratio=1.0 - NUDGE),
        "chain": lambda ls: bound(ls, "unew5[ones]").update(
            value=bound(ls, "opt_upper")["value"] - NUDGE),
    }
    for kind, plant in plants.items():
        bad = copy.deepcopy(records)
        plant(bad[0]["outputs"])
        found = _failures(wl, bad)
        assert any(f.startswith(kind) for f in found), (kind, found)


# -- tracing and the metric list -----------------------------------------

def test_tracer_counts_calls_through_every_namespace_and_restores():
    import unionbounds.bounds_new as bounds_new
    import unionbounds.weights as weights

    originals = (ub.lnew3, weights.lnew3, bounds_new.select_dp,
                 ub.WeightVector.from_components)
    space = ub.generate_random_space(4, 3, "dirichlet")
    info = ub.derive_partial_info(space)
    tracer = Tracer()
    with tracer:
        ub.lnew3(info, ub.WeightVector.ones(4))  # not recording: not counted
        tracer.record(True)
        ub.lnew3(info, ub.WeightVector.from_components([0.5, 1.0, 0.7, 0.2]))
        weights.random_search(info, 2, 0)
        tracer.record(False)
    assert (ub.lnew3, weights.lnew3, bounds_new.select_dp,
            ub.WeightVector.from_components) == originals
    calls, incl, own = tracer.function("bounds_new.lnew3")
    assert calls == 3 and 0.0 < own <= incl
    assert tracer.function("subset_opt.select_dp")[0] > 0
    assert tracer.function("space.WeightVector.from_components")[0] == 1
    # nested calls into one layer count once towards the layer's time
    assert tracer.layer_seconds("bounds_new") <= incl + 1e-9


class _AffinityProbe:
    """A workload whose one case per round reports the CPUs it ran on."""

    PASSES = 3

    def cases(self, r):
        return [r]

    def run(self, case):
        return os.sched_getaffinity(0)

    def keep(self, case, cpus):
        return {"outputs": cpus}, 1


def test_passes_take_the_cpus_in_turn_and_restore_them():
    before = os.sched_getaffinity(0)
    passes = run.timed_passes(_AffinityProbe(), 0.0)
    cpus = sorted(before)
    assert [p.records[0]["outputs"] for p in passes] == \
        [{cpus[k % len(cpus)]} for k in range(3)]
    assert os.sched_getaffinity(0) == before


def test_metrics_printed_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.BatteryCorpus(0, Path(tmp))
        plain = run.run_pass(wl, 0.0, 1)
        tracer = Tracer()
        with tracer:
            traced = run.run_pass(wl, 0.0, 1, tracer)
    printed = {"end_to_end": run.end_to_end_metrics([plain, traced], 0.2, 40.0),
               "per_layer": run.layer_metrics(tracer, plain, traced)}
    for kind, metrics in printed.items():
        assert [(m["name"], m["unit"]) for m in spec[kind]] == \
            [(name, m["unit"]) for name, m in metrics.items()], kind
    assert all(m["value"] > 0 for m in printed["end_to_end"].values())


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as err:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(err).__name__}: {err}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
