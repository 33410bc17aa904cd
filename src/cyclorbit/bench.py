"""Scaling measurements: worst-case family and large random instances.

The interesting contrast: on the prime-length cycle family the group order
(the cost of any enumeration) grows superpolynomially in the degree while
the reduction's word count stays proportional to the input size.  Rows
carry both numbers so the gap is visible in one table.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import astuple, dataclass, fields
from operator import index

from .congruence import CostCounter, at_least, expect
from .orbit import decide_orbit
from .permutation import (
    Permutation, apply_power, check_configuration, order, primorial_permutation,
)


@dataclass(frozen=True)
class ScalingRow:
    label: str
    degree: int
    input_size_bits: int
    wall_time: float  # median decide_orbit time over repeats, verification included, seconds
    word_ops: int
    max_bits: int
    order_bits: int  # bit length of order(g): enumeration cost in disguise
    r_star: int
    witness: int
    period: int


@dataclass
class ScalingReport:
    mode: str
    rng_seed: int
    repeats: int
    rows: list[ScalingRow]

    def csv_rows(self):
        """ScalingRow's field names, then one tuple per row, floats to 6 digits."""
        yield tuple(f.name for f in fields(ScalingRow))
        for r in self.rows:
            yield tuple(f"{x:.6g}" if isinstance(x, float) else x for x in astuple(r))


def instance_size_bits(g: Permutation, v: str, w: str, alphabet_size: int = 2) -> int:
    """Encoded input size of the configurations v and w of g: index bits across
    all cycles plus both at ceil(log2(alphabet_size)) bits a symbol, at least 1."""
    check_configuration(g, v, w)
    bits = sum(e.bit_length() for c in g.cycles for e in c)
    per_symbol = max(1, (at_least(alphabet_size, 1, "alphabet_size") - 1).bit_length())
    return bits + per_symbol * (len(v) + len(w))


def _random_orbit_instance(n: int, rng_seed: int, key: int):
    """(g, v, r, w): a uniform permutation g of [1, n], a uniform binary v, a
    uniform exponent r in [0, order(g)) and w = g^r v, drawn in that order
    from one random.Random seeded with the string f"{rng_seed}/{key}".
    g is drawn as cycles: the cycle through a given point of a uniform
    permutation of m points has length uniform on [1, m], so cutting the
    shuffled points into such lengths, from the end, keeps g uniform."""
    rng = random.Random(f"{rng_seed}/{key}")
    points = list(range(1, n + 1))
    rng.shuffle(points)
    cycles = []
    while points:
        k = rng.randint(1, len(points))
        cycles.append(points[-k:])
        del points[-k:]
    g = Permutation(n, cycles)
    v = format(rng.getrandbits(n), f"0{n}b")
    r = rng.randrange(order(g))
    return g, v, r, apply_power(g, r, v)


def _mark_cycle_starts(g: Permutation) -> str:
    """A 1 at the first index of each cycle of g, 0 elsewhere."""
    starts = {c[0] for c in g.cycles}
    return "".join("1" if j in starts else "0" for j in range(1, g.n + 1))


def _measure_instance(g, v, w, label, r_star, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        decide_orbit(g, v, w)
        times.append(time.perf_counter() - t0)
    counter = CostCounter()
    answer = decide_orbit(g, v, w, counter)
    if not answer.in_orbit or r_star not in answer.solutions:
        raise RuntimeError(f"{label}: answer {answer} misses the planted r={r_star}")
    return ScalingRow(
        label=label,
        degree=g.n,
        input_size_bits=instance_size_bits(g, v, w),
        wall_time=statistics.median(times),
        word_ops=counter.word_ops,
        max_bits=counter.max_bits,
        order_bits=order(g).bit_length(),
        r_star=r_star,
        witness=answer.witness,
        period=answer.solutions.period,
    )


def _measure_planted(g, label, rng, repeats):
    """The row of g with v marking each cycle's first index and w = g^r* v
    for r* drawn uniformly from [0, order(g)) with rng."""
    v = _mark_cycle_starts(g)
    r_star = rng.randrange(order(g))
    return _measure_instance(g, v, apply_power(g, r_star, v), label, r_star, repeats)


def run_primorial_scaling(
    i_max: int, rng_seed: int = 0, repeats: int = 5
) -> ScalingReport:
    """Decide one in-orbit instance per prime-cycle permutation, i = 1..i_max.

    v marks the first index of every cycle; w = g^r* v for a recorded
    uniform r* in [0, order(g)), so every run must rediscover a progression
    containing r*.
    """
    i_max = at_least(i_max, 1, "i_max")
    repeats = at_least(repeats, 1, "repeats")
    rng_seed = index(rng_seed)
    rng = random.Random(rng_seed)
    rows = [
        _measure_planted(primorial_permutation(i), f"i={i}", rng, repeats)
        for i in range(1, i_max + 1)
    ]
    return ScalingReport("primorial", rng_seed, repeats, rows)


def run_primes_then_pairs_scaling(
    i: int, ms=(0, 10**4, 10**5), rng_seed: int = 0, repeats: int = 1
) -> ScalingReport:
    """Decide one in-orbit instance per m in ms: the first i prime cycles
    followed by m 2-cycles, in that order.

    A fold that takes the cycles as listed carries a modulus as wide as the
    group order through every 2-cycle, so this family shows whether the
    counted cost depends on the cycle order.  v and r* are drawn as in
    run_primorial_scaling.
    """
    repeats = at_least(repeats, 1, "repeats")
    rng_seed = index(rng_seed)
    ms = [at_least(m, 0, "m") for m in ms]
    primes = primorial_permutation(i)
    rng = random.Random(rng_seed)
    rows = []
    for m in ms:
        pairs = ((j, j + 1) for j in range(primes.n + 1, primes.n + 2 * m, 2))
        g = Permutation(primes.n + 2 * m, (*primes.cycles, *pairs))
        rows.append(_measure_planted(g, f"m={m}", rng, repeats))
    return ScalingReport("primes-then-pairs", rng_seed, repeats, rows)


def run_random_scaling(
    sizes=(10**3, 10**4, 10**5, 2 * 10**5, 5 * 10**5, 10**6),
    rng_seed: int = 0,
    repeats: int = 3,
) -> ScalingReport:
    """Decide one in-orbit instance per size over uniform random permutations."""
    repeats = at_least(repeats, 1, "repeats")
    rng_seed = index(rng_seed)
    sizes = [at_least(n, 1, "size") for n in sizes]
    rows = []
    for idx, n in enumerate(sizes):
        g, v, r_star, w = _random_orbit_instance(n, rng_seed, idx)
        rows.append(_measure_instance(g, v, w, f"n={n}", r_star, repeats))
    return ScalingReport("random", rng_seed, repeats, rows)


def ratio_band(report: ScalingReport, window: float = 10.0) -> tuple[float, float]:
    """(min, max) of word_ops / input_size_bits over the rows whose input size
    is within `window` of the largest; the spread across that band is the
    linearity check."""
    expect(report, ScalingReport, "report")
    top = max((r.input_size_bits for r in report.rows), default=0)
    ratios = [
        r.word_ops / r.input_size_bits
        for r in report.rows
        if r.input_size_bits * window >= top
    ]
    if not ratios:
        raise ValueError("no rows in the requested window")
    return min(ratios), max(ratios)

