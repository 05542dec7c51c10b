"""The three workloads: inputs, the timed call, and the output checks.

Every workload makes its inputs in rounds.  Round r's inputs come from a
generator seeded with (seed, workload tag, r), so the same seed gives the
same inputs; round 0 is made during set-up, later rounds between timed
cases.  ``run`` is the timed part.  ``keep`` turns its output into a small
record (the inputs are dropped, so memory does not grow with the run);
``check`` runs the deferred output checks on all records at the end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import checks as chk
import oracles
import unionbounds as ub
from unionbounds import cli

FPTAS_EPS = 0.01


def _space_record(space: ub.EventSpace) -> dict[str, Any]:
    alpha, pairwise = oracles.partial_info(space.n, space.atom_probs)
    return {"n": space.n, "exact": oracles.exact_union(space.atom_probs),
            "alpha": alpha, "pairwise": pairwise}


class _Rounds:
    """Inputs made per round by ``_make(r)``.  Round 0 is made at set-up and
    handed out once; every later call makes fresh inputs, so no pass meets
    inputs that carry state (cached arrays) left by another pass."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self._first: list | None = self._make(0)

    def _make(self, r: int) -> list:
        raise NotImplementedError

    def cases(self, r: int) -> list:
        if r == 0 and self._first is not None:
            cases, self._first = self._first, None
            return cases
        return self._make(r)


def _sparse_model(n: int) -> str:
    return f"sparse:{min(8 * n, (1 << n) - 1)}"


# -- compare-readme ------------------------------------------------------

class CompareReadme:
    """`compare` on the README problem through the CLI, json-lines output."""

    name = "compare-readme"
    PASSES = 3
    TRIALS = 500
    KAPPA = "-1:1:0.005"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.problem = workdir / "readme-problem.json"
        self.report = workdir / "compare.jsonl"
        code = cli.main(["gen", "--n", "6", "--seed", "11", "--out", str(self.problem)])
        if code != 0:
            raise RuntimeError(f"gen exited with code {code}")
        with open(self.problem, encoding="utf-8") as fh:
            raw = json.load(fh)
        self.atoms = {int(k): float(v) for k, v in raw["atoms"].items()}
        self.n = int(raw["n"])
        self.exact = oracles.exact_union(self.atoms)
        self.alpha, self.pairwise = oracles.partial_info(self.n, self.atoms)

    def cases(self, r: int) -> list[int]:
        return [self.seed * 100_000 + r]  # the random-search seed of round r

    def run(self, search_seed: int) -> None:
        code = cli.main(["compare", "--input", str(self.problem),
                         "--trials", str(self.TRIALS), "--seed", str(search_seed),
                         f"--kappa={self.KAPPA}", "--format", "json-lines",
                         "--out", str(self.report)])
        if code != 0:
            raise RuntimeError(f"compare exited with code {code}")

    def keep(self, search_seed: int, output: None) -> tuple[dict[str, Any], int]:
        with open(self.report, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        bounds = [rec for rec in lines if rec["record"] == "bound"]
        stats = [rec for rec in lines if rec["record"] == "stats"]
        evaluations = sum(int(rec["notes"].get("evaluations", 0)) for rec in bounds)
        produced = len(bounds) + evaluations + 2 * sum(s["trials"] for s in stats)
        return {"search_seed": search_seed, "outputs": lines}, produced

    def check(self, records: list[dict[str, Any]], ck: chk.Checks) -> None:
        ones = np.ones(self.n)
        lp_ref = {sense: oracles.inclass_lp(self.alpha, self.pairwise, ones, sense)
                  for sense in ("lower", "upper")}
        for rec in records:
            where = f"compare seed {rec['search_seed']}"
            lines = rec["outputs"]
            header = [x for x in lines if x["record"] == "header"]
            bounds = {x["name"]: x for x in lines if x["record"] == "bound"}
            stats = [x for x in lines if x["record"] == "stats"]
            if not ck.equal(f"{where} header/stats records",
                            (len(header), len(stats)), (1, 1)):
                continue
            header, stats = header[0], stats[0]
            ck.exact_union(where, header["exact_union"], self.exact)
            ck.partial_info(f"{where} alpha", header["alpha"], self.alpha)
            ck.partial_info(f"{where} pairwise", header["pairwise"], self.pairwise)
            for name, b in bounds.items():
                if b["kind"] == "lower":
                    ck.lower(f"{where} {name}", b["value"], self.exact)
                else:
                    ck.upper(f"{where} {name}", b["value"], self.exact)
                if name.startswith("lnew3") and b["weights"] is not None:
                    ref = oracles.lnew3(self.alpha, self.pairwise, np.array(b["weights"]))
                    ck.oracle(f"{where} {name}", b["value"], ref)
            ck.oracle(f"{where} kat (lnew3 at unit weights)", bounds["kat"]["value"],
                      oracles.lnew3(self.alpha, self.pairwise, ones))
            for hi, lo in (("lnew4[rand]", "lnew3[rand]"), ("lnew4[gk+]", "lnew3[gk+]"),
                           ("lnew4[gk]", "lnew3[gk]"), ("yat2", "kat")):
                if hi in bounds and lo in bounds:
                    ck.dominates(f"{where} {hi} vs {lo}", bounds[hi]["value"],
                                 bounds[lo]["value"])
            ck.mean_ratio(where, stats["mean_ratio"])
            ck.equal(f"{where} trials", stats["trials"], self.TRIALS)
            ck.equal(f"{where} best lnew3", stats["best_lnew3"],
                     bounds["lnew3[rand]"]["value"])
            for sense in ("lower", "upper"):
                ck.lp(f"{where} opt_{sense}", bounds[f"opt_{sense}"]["value"],
                      lp_ref[sense])
            v = {name: bounds[name]["value"] for name in
                 ("kat", "yat2", "opt_lower", "opt_upper", "unew5[ones]", "unew4[ones]")}
            ck.chain(f"{where} unit-weight chain",
                     [("lnew3=kat", v["kat"]), ("opt_lower", v["opt_lower"]),
                      ("exact", self.exact), ("opt_upper", v["opt_upper"]),
                      ("unew5", v["unew5[ones]"]), ("unew4", v["unew4[ones]"])])
            ck.chain(f"{where} unit-weight chain (lnew4)",
                     [("lnew4=yat2", v["yat2"]), ("opt_lower", v["opt_lower"])])


# -- inclass-lp ----------------------------------------------------------

@dataclass(frozen=True)
class LpCase:
    r: int
    space: ub.EventSpace
    info: ub.PartialInfo
    weights: tuple[tuple[str, ub.WeightVector], ...]


def stratified_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive weights, each uniform on (0, 1], with exactly one component
    in each of (k/n, (k+1)/n] (a Latin hypercube sample): no vector has
    all its components crowded together, which cuts the spread of LP cost
    from vector to vector."""
    return rng.permutation((np.arange(n) + 1.0 - rng.random(n)) / n)


class InclassLp(_Rounds):
    """The in-class LP in both senses at unit and random positive weights.

    A case is one space through all four LPs.  A round holds twelve
    n = 8 spaces, so the median case is an n = 8 space drawn from many,
    and two spaces each at n = 10 and n = 12, which take most of the time
    and so set the throughput.
    """

    name = "inclass-lp"
    PASSES = 2  # the n = 12 spaces vary most; two passes leave room for more
    GRID = (((8, "dirichlet"), (8, _sparse_model(8))) * 6
            + tuple((n, model) for n in (10, 12)
                    for model in ("dirichlet", _sparse_model(n))))
    ORACLE_ROUNDS = 1  # rounds whose lnew3 oracle joins the chain check

    def _make(self, r: int) -> list[LpCase]:
        rng = np.random.default_rng([self.seed, 2, r])
        out = []
        for n, model in self.GRID:
            space = ub.generate_random_space(n, int(rng.integers(2**31)), model)
            info = ub.derive_partial_info(space)
            rand = ub.WeightVector.from_components(stratified_weights(rng, n))
            out.append(LpCase(r, space, info,
                              (("ones", ub.WeightVector.ones(n)), ("rand", rand))))
        return out

    def run(self, case: LpCase) -> dict[str, float]:
        return {f"opt_{sense}[{label}]": ub.optimal_inclass_bound(case.info, w, sense)
                for label, w in case.weights for sense in ("lower", "upper")}

    def keep(self, case: LpCase, values: dict[str, float]) -> tuple[dict[str, Any], int]:
        rec = _space_record(case.space)
        rec.update(r=case.r, outputs=values,
                   weights={label: np.array(w.c) for label, w in case.weights})
        return rec, len(values)

    def check(self, records: list[dict[str, Any]], ck: chk.Checks) -> None:
        for k, rec in enumerate(records):
            info = ub.PartialInfo(n=rec["n"], alpha=rec["alpha"], pairwise=rec["pairwise"])
            for label, c in rec["weights"].items():
                where = f"case {k} (n={rec['n']}, round {rec['r']}) [{label}]"
                lo = rec["outputs"][f"opt_lower[{label}]"]
                up = rec["outputs"][f"opt_upper[{label}]"]
                for sense, value in (("lower", lo), ("upper", up)):
                    ref = oracles.inclass_lp(rec["alpha"], rec["pairwise"], c, sense)
                    ck.lp(f"{where} opt_{sense}", value, ref)
                ck.lower(where, lo, rec["exact"])
                ck.upper(where, up, rec["exact"])
                unew5 = ub.unew5(info, ub.WeightVector.from_components(c)).value
                chain = [("opt_lower", lo), ("exact", rec["exact"]),
                         ("opt_upper", up), ("unew5", unew5)]
                if rec["r"] < self.ORACLE_ROUNDS:
                    chain.insert(0, ("lnew3 oracle",
                                     oracles.lnew3(rec["alpha"], rec["pairwise"], c)))
                ck.chain(where, chain)


# -- battery-corpus --------------------------------------------------------

@dataclass(frozen=True)
class BatteryCase:
    r: int
    space: ub.EventSpace
    positive: np.ndarray
    mixed: np.ndarray


def mixed_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixed-sign dyadic weights whose nonzero subset sums all stay at least
    a floor away from zero (0.05, halved per event beyond six), so every
    1/sum in the identity and the bounds is well conditioned."""
    floor = 0.05 * 2.0 ** min(0, 6 - n)
    while True:
        c = np.round(rng.uniform(-1.0, 1.0, n) * (1 << 20)) / (1 << 20)
        if np.all(c > 0) or np.all(c < 0):
            continue
        if np.min(np.abs(oracles.subset_sums(c)[1:])) >= floor:
            return c


class BatteryCorpus(_Rounds):
    """Small atom-form problems, n = 2..12, both generator models, through
    the library battery at positive, mixed-sign and approximate settings."""

    name = "battery-corpus"
    PASSES = 3
    N_RANGE = range(2, 13)
    ORACLE_MAX_N = 6  # the lnew3 oracle checks every case up to this n ...
    ORACLE_ROUNDS = 1  # ... and every case of the first rounds

    def _make(self, r: int) -> list[BatteryCase]:
        rng = np.random.default_rng([self.seed, 3, r])
        out = []
        for n in self.N_RANGE:
            for model in ("dirichlet", _sparse_model(n)):
                space = ub.generate_random_space(n, int(rng.integers(2**31)), model)
                out.append(BatteryCase(r, space, 1.0 - rng.random(n),
                                       mixed_weights(rng, n)))
        return out

    def run(self, case: BatteryCase) -> dict[str, float]:
        info = ub.derive_partial_info(case.space)
        wp = ub.WeightVector.from_components(case.positive)
        wm = ub.WeightVector.from_components(case.mixed)
        gk, _ = ub.gk_bound(info)
        return {
            "dc": ub.dc_bound(info).value,
            "kat": ub.kat_bound(info).value,
            "gk": gk.value,
            "yat2": ub.yat2_bound(info).value,
            "ratio": ub.ratio_bound(info, wp).value,
            "cs_percomponent": ub.cs_percomponent_bound(info, wp).value,
            "cs_aggregate": ub.cs_aggregate_bound(info, wp).value,
            "lnew3": ub.lnew3(info, wp).value,
            "lnew4": ub.lnew4(info, wp).value,
            "unew4": ub.unew4(info, wp).value,
            "unew5": ub.unew5(info, wp).value,
            "lnew3_mixed": ub.lnew3(info, wm).value,
            "ratio_mixed": ub.ratio_bound(info, wm).value,
            "lnew3_fptas": ub.lnew3(info, wp, FPTAS_EPS).value,
            "lnew4_fptas": ub.lnew4(info, wp, FPTAS_EPS).value,
            "identity": ub.weighted_identity(case.space, wp),
            "identity_mixed": ub.weighted_identity(case.space, wm),
        }

    def keep(self, case: BatteryCase, values: dict[str, float]) -> tuple[dict[str, Any], int]:
        rec = _space_record(case.space)
        rec.update(r=case.r, outputs=values, positive=case.positive, mixed=case.mixed)
        return rec, sum(1 for name in values if not name.startswith("identity"))

    UPPER = ("unew4", "unew5")

    def check(self, records: list[dict[str, Any]], ck: chk.Checks) -> None:
        ratios = []
        for k, rec in enumerate(records):
            v, exact = rec["outputs"], rec["exact"]
            where = f"case {k} (n={rec['n']}, round {rec['r']})"
            for name, value in v.items():
                if name.startswith("identity"):
                    ck.identity(f"{where} {name}", value, exact)
                elif name in self.UPPER:
                    ck.upper(f"{where} {name}", value, exact)
                else:
                    ck.lower(f"{where} {name}", value, exact)
            ck.chain(f"{where} upper", [("exact", exact), ("unew5", v["unew5"]),
                                        ("unew4", v["unew4"])], chk.ORDER_TOL)
            ck.dominates(f"{where} lnew4 vs lnew3", v["lnew4"], v["lnew3"])
            budget = oracles.fptas_budget(rec["alpha"], FPTAS_EPS)
            ck.fptas(f"{where} lnew3", v["lnew3_fptas"], v["lnew3"], budget)
            ck.fptas(f"{where} lnew4", v["lnew4_fptas"], v["lnew4"], budget)
            if v["lnew3"] > 1e-15:
                ratios.append(v["lnew4"] / v["lnew3"])
            if rec["n"] <= self.ORACLE_MAX_N or rec["r"] < self.ORACLE_ROUNDS:
                for name, c in (("lnew3", rec["positive"]), ("lnew3_mixed", rec["mixed"])):
                    ref = oracles.lnew3(rec["alpha"], rec["pairwise"], c)
                    ck.oracle(f"{where} {name}", v[name], ref)
        ck.mean_ratio("battery", math.fsum(ratios) / len(ratios) if ratios else None)


WORKLOADS = {w.name: w for w in (CompareReadme, InclassLp, BatteryCorpus)}
