"""Cycle-count combinatorics and empirical average-case cost measurement.

The number of congruences the reduction emits for a uniform random
permutation is its number of cycles.  The distribution of that count is
governed by the unsigned Stirling numbers of the first kind c(n, k); its
first three moments have exact closed forms in harmonic numbers, verified
here in exact rational arithmetic, and the third moment grows like ln^3 n.
measure_average_cost samples the actual solver cost on random instances.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from .bench import _random_orbit_instance
from .congruence import CostCounter, at_least, clip, solve_system
from .orbit import reduce


class StirlingTable:
    """c(n, k): permutations of [n] with exactly k cycles, as exact integers.

    Built row by row from c(n+1, k) = n * c(n, k) + c(n, k-1) with
    c(0, 0) = 1.  Row n sums to n!.
    """

    def __init__(self, n_max: int):
        n_max = at_least(n_max, 0, "n_max")
        rows = [[1]]
        for n in range(n_max):
            prev = rows[-1]
            row = [0] * (n + 2)
            for k in range(1, n + 2):
                row[k] = n * (prev[k] if k < len(prev) else 0) + prev[k - 1]
            rows.append(row)
        self.n_max = n_max
        self._rows = rows

    def value(self, n: int, k: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={clip(n)} outside the table (n_max={clip(self.n_max)})")
        if k < 0 or k > n:
            return 0
        return self._rows[n][k]

    def row(self, n: int) -> list[int]:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={clip(n)} outside the table (n_max={clip(self.n_max)})")
        return list(self._rows[n])


@dataclass
class HarmonicValues:
    """Exact H_n, H_n^(2), H_n^(3) for n = 0..n_max (entry 0 is 0)."""

    h1: list[Fraction]
    h2: list[Fraction]
    h3: list[Fraction]


def harmonic_values(n_max: int) -> HarmonicValues:
    n_max = at_least(n_max, 0, "n_max")
    h1 = [Fraction(0)]
    h2 = [Fraction(0)]
    h3 = [Fraction(0)]
    for n in range(1, n_max + 1):
        h1.append(h1[-1] + Fraction(1, n))
        h2.append(h2[-1] + Fraction(1, n * n))
        h3.append(h3[-1] + Fraction(1, n * n * n))
    return HarmonicValues(h1, h2, h3)


@dataclass
class IdentityReport:
    """Outcome of the exact moment-identity checks up to n_max."""

    n_max: int
    checked: int
    failures: list[tuple[int, str, Fraction, Fraction]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def cycle_count_moments(n: int, table: StirlingTable) -> tuple[Fraction, Fraction, Fraction]:
    """Exact E[K], E[K^2], E[K^3] for the cycle count K of a uniform permutation of [n]."""
    fact = math.factorial(n)
    m1 = m2 = m3 = 0
    for k in range(1, n + 1):
        c = table.value(n, k)
        m1 += k * c
        m2 += k * k * c
        m3 += k * k * k * c
    return Fraction(m1, fact), Fraction(m2, fact), Fraction(m3, fact)


def verify_moment_identities(n_max: int) -> IdentityReport:
    """Check five exact identities for every n in [1, n_max].

    With H = H_n, H2 = H_n^(2), H3 = H_n^(3), c(.,.) the cycle counts and
    K the cycle count of a uniform random permutation of [n]:

      mean-cycles        E[K] = H
      second-moment      E[K^2] = 2 c(n+1,3)/n! + H
      third-moment       E[K^3] = 6 c(n+1,4)/n! + 6 c(n+1,3)/n! + H
      stirling3-closed   c(n+1,3)/n! = (H^2 - H2) / 2
      stirling4-closed   c(n+1,4)/n! = (H^3 - 3 H H2 + 2 H3) / 6

    Everything is exact rational arithmetic; any failure is recorded with
    both sides.
    """
    n_max = at_least(n_max, 1, "n_max")
    table = StirlingTable(n_max + 1)
    harm = harmonic_values(n_max)
    report = IdentityReport(n_max=n_max, checked=0)
    for n in range(1, n_max + 1):
        fact = math.factorial(n)
        h, h2, h3 = harm.h1[n], harm.h2[n], harm.h3[n]
        s3 = Fraction(table.value(n + 1, 3), fact)
        s4 = Fraction(table.value(n + 1, 4), fact)
        m1, m2, m3 = cycle_count_moments(n, table)
        checks = [
            ("mean-cycles", m1, h),
            ("second-moment", m2, 2 * s3 + h),
            ("third-moment", m3, 6 * s4 + 6 * s3 + h),
            ("stirling3-closed", s3, (h * h - h2) / 2),
            ("stirling4-closed", s4, (h * h * h - 3 * h * h2 + 2 * h3) / 6),
        ]
        for name, lhs, rhs in checks:
            report.checked += 1
            if lhs != rhs:
                report.failures.append((n, name, lhs, rhs))
    return report


def asymptotic_ratio_report(n_max: int) -> list[tuple[int, float]]:
    """(n, E[K^3] / ln(n)^3) for n in [2, n_max]; the ratio drifts toward 1 slowly."""
    n_max = at_least(n_max, 2, "n_max")
    table = StirlingTable(n_max)
    out = []
    for n in range(2, n_max + 1):
        _, _, m3 = cycle_count_moments(n, table)
        out.append((n, float(m3) / math.log(n) ** 3))
    return out


@dataclass
class AverageCostStats:
    """Per-trial records and summary statistics from measure_average_cost."""

    n: int
    trials: int
    rng_seed: int
    rows: list[tuple[int, int, int, int]]  # (trial, k_cycles, word_ops, max_bits)
    mean_cycles: float
    se_cycles: float
    mean_word_ops: float
    max_word_ops: int
    mean_max_bits: float

    def csv_rows(self):
        yield ("n", "trial", "k_cycles", "word_ops", "max_bits")
        for trial, k, ops, bits in self.rows:
            yield (self.n, trial, k, ops, bits)


def measure_average_cost(n: int, trials: int, rng_seed: int) -> AverageCostStats:
    """Solver cost on uniform random permutations with in-orbit targets.

    Each trial draws a uniform permutation g of [n], a uniform binary v, a
    uniform exponent r in [0, order(g)), and sets w = g^r v, so the
    reduction always emits one equation per cycle and the congruence solver
    always runs to completion, folding each repeated cycle modulus once.
    Only the solver is costed; the string work of the reduction is excluded
    so the numbers isolate the equation side.
    Trial t draws from its own random.Random seeded with f"{rng_seed}/{t}",
    so results do not depend on execution order.
    """
    n = at_least(n, 1, "n")
    trials = at_least(trials, 1, "trials")
    rows = []
    for t in range(trials):
        g, v, r, w = _random_orbit_instance(n, rng_seed, t)
        k_cycles = len(g.cycles) + n - sum(len(c) for c in g.cycles)
        system = reduce(g, v, w)
        if system is None or len(system) != len(g.cycles):
            raise RuntimeError(f"trial {t}: the reduction lost an in-orbit instance")
        counter = CostCounter()
        solutions = solve_system(system, counter)
        if solutions.is_empty or r not in solutions:
            raise RuntimeError(f"trial {t}: solutions {solutions} miss the planted r={r}")
        rows.append((t, k_cycles, counter.word_ops, counter.max_bits))
    ks = [k for _, k, _, _ in rows]
    ops = [o for _, _, o, _ in rows]
    bitcol = [b for _, _, _, b in rows]
    mean_k = sum(ks) / trials
    var_k = sum((k - mean_k) ** 2 for k in ks) / (trials - 1) if trials > 1 else 0.0
    return AverageCostStats(
        n=n,
        trials=trials,
        rng_seed=rng_seed,
        rows=rows,
        mean_cycles=mean_k,
        se_cycles=math.sqrt(var_k / trials),
        mean_word_ops=sum(ops) / trials,
        max_word_ops=max(ops),
        mean_max_bits=sum(bitcol) / trials,
    )


def fit_polylog_exponent(series: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(cost) against log(log n).

    For cost ~ C * (log n)^c over the sampled n the slope recovers c.
    Fewer than two points, or all n equal, raise a ValueError.
    """
    xs = [math.log(math.log(n)) for n, _ in series]
    ys = [math.log(c) for _, c in series]
    return statistics.linear_regression(xs, ys).slope
