"""Output checks and their tolerances.

Each tolerance is set from the measured accuracy of its reference, with a
wide margin, and stays well below the 1e-6 error that the negative tests
in ``selftest.py`` plant to show that the check can fail.  The largest
differences seen over several hundred battery-corpus and inclass-lp cases:

* exact union: ``math.fsum`` of the atom masses is correctly rounded and
  the program sums the same masses, so the two agree to the last bit;
* bounds against the exact union on tight cases: lower bounds above it by
  at most 4.4e-16, upper bounds below it by at most 5.6e-16 (tolerance
  1e-10);
* the weighted identity: 2.2e-16 (tolerance 1e-12, the package's own);
* lnew3 against pair enumeration: 2.8e-14 (tolerance 1e-9);
* the in-class LP against HiGHS at feasibility tolerance 1e-10: 2.1e-11
  (tolerance 1e-9, also used by the chains that pass through LP values);
* lnew4 below lnew3: 1.1e-16; the approximation scheme used at most 0.40
  of its budget and never exceeded the exact-mode value.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

EXACT_TOL = 1e-15
INFO_TOL = 1e-12
VALIDITY_TOL = 1e-10
IDENTITY_TOL = 1e-12
ORACLE_TOL = 1e-9
LP_TOL = 1e-9
ORDER_TOL = 1e-9  # lnew4 >= lnew3, mean ratio >= 1, chains without LP values


class Checks:
    """Runs checks, counting each kind, and keeps the failures."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def _check(self, kind: str, passed: bool, message: str) -> bool:
        self.counts[kind] += 1
        if not passed:
            self.failures.append(f"{kind}: {message}")
        return passed

    def exact_union(self, where: str, reported: float, exact: float) -> bool:
        return self._check("exact_union", abs(reported - exact) <= EXACT_TOL,
                           f"{where}: reported {reported!r}, fsum of atoms {exact!r}")

    def partial_info(self, where: str, reported: Sequence, reference: Sequence) -> bool:
        got = np.asarray(reported, dtype=float)
        want = np.asarray(reference, dtype=float)
        if got.shape != want.shape:
            return self._check("partial_info", False,
                               f"{where}: shape {got.shape}, want {want.shape}")
        gap = float(np.max(np.abs(got - want), initial=0.0))
        return self._check("partial_info", gap <= INFO_TOL,
                           f"{where}: largest difference {gap!r}")

    def lower(self, where: str, value: float, exact: float) -> bool:
        return self._check("validity", value <= exact + VALIDITY_TOL,
                           f"{where}: lower bound {value!r} > exact {exact!r}")

    def upper(self, where: str, value: float, exact: float) -> bool:
        return self._check("validity", value >= exact - VALIDITY_TOL,
                           f"{where}: upper bound {value!r} < exact {exact!r}")

    def identity(self, where: str, value: float, exact: float) -> bool:
        return self._check("identity", abs(value - exact) <= IDENTITY_TOL,
                           f"{where}: identity {value!r} vs exact {exact!r}")

    def oracle(self, where: str, value: float, reference: float) -> bool:
        return self._check("lnew3_oracle", abs(value - reference) <= ORACLE_TOL,
                           f"{where}: {value!r} vs pair enumeration {reference!r}")

    def lp(self, where: str, value: float, reference: float) -> bool:
        return self._check("lp_highs", abs(value - reference) <= LP_TOL,
                           f"{where}: {value!r} vs HiGHS {reference!r}")

    def chain(self, where: str, named: Sequence[tuple[str, float]],
              tol: float = LP_TOL) -> bool:
        """Values must not decrease along the chain, each step up to tol."""
        bad = [(a, b) for a, b in zip(named, named[1:]) if a[1] > b[1] + tol]
        return self._check("chain", not bad, f"{where}: out of order {bad!r}")

    def dominates(self, where: str, higher: float, lower: float) -> bool:
        return self._check("lnew4_ge_lnew3", higher >= lower - ORDER_TOL,
                           f"{where}: {higher!r} < {lower!r}")

    def mean_ratio(self, where: str, ratio: float | None) -> bool:
        return self._check("mean_ratio", ratio is not None and ratio >= 1.0 - ORDER_TOL,
                           f"{where}: mean lnew4/lnew3 ratio {ratio!r} < 1")

    def fptas(self, where: str, approx: float, exact_mode: float, budget: float) -> bool:
        ok = exact_mode - budget - ORDER_TOL <= approx <= exact_mode + ORDER_TOL
        return self._check("fptas", ok,
                           f"{where}: {approx!r} outside [{exact_mode - budget!r}, "
                           f"{exact_mode!r}]")

    def repeat(self, where: str, value: object, first: object) -> bool:
        return self._check("repeat", value == first,
                           f"{where}: second pass gave {value!r}, first {first!r}")

    def equal(self, where: str, value: object, expected: object) -> bool:
        return self._check("report", value == expected,
                           f"{where}: {value!r} != {expected!r}")

