"""Seeded inputs for the cyclorbit benchmark, with the answers known from construction.

Every case carries the text handed to cyclorbit (an instance file or a
congruence-system file) and what the generator planted in it: for an orbit
instance the exponent r* and the exact period of the exponent set, or the
kind of refutation built in; for a system the solution x* or the forced
conflict.  The same seed always gives the same cases.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("orbit-large", "orbit-small-mixed", "congruence-systems")

YES_KINDS = ("yes", "yes-periodic")
NO_KINDS = ("no-fixed", "no-rotation", "no-conflict")
# One block of the orbit-small-mixed pool: half YES (some periodic), the NO
# half split evenly over the three refutations.
SMALL_MIX = ("yes",) * 3 + ("yes-periodic",) * 3 + NO_KINDS * 2

ALPHABETS = ("01", "abαβ")  # the second is non-ASCII: multi-byte in UTF-8
MAX_BLOCK = 8  # longest repeated block of a periodic projection


@dataclass
class OrbitCase:
    kind: str
    text: str
    n: int
    cycles: list  # 0-based index arrays in successor order, each of length >= 2
    v: np.ndarray  # symbol codes
    w: np.ndarray
    r_star: int | None  # planted exponent (YES only)
    period: int | None  # period of the full exponent set (YES only)


@dataclass
class SystemCase:
    kind: str
    text: str
    x_star: int | None  # planted solution (solvable only)
    lcm: int


def divisors(k: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return sorted(set(small + [k // d for d in small]))


def least_period(proj: np.ndarray) -> int:
    """Smallest d with proj equal to itself rotated by d; it divides len(proj)."""
    for d in divisors(len(proj)):
        if np.array_equal(proj, np.roll(proj, d)):
            return d
    raise AssertionError("len(proj) is always a period")


def power(cycles, v: np.ndarray, r: int) -> np.ndarray:
    """g^r v: the symbol at c[t] moves to c[t + r] on every cycle c."""
    out = v.copy()
    for c in cycles:
        s = r % len(c)
        if s:
            out[np.roll(c, -s)] = v[c]
    return out


def random_cycles(rng, n: int, fixed_share: float) -> list:
    """Cycles of a permutation that fixes round(fixed_share * n) chosen indices
    and is uniform on the rest.

    In a uniform permutation of m points the cycle through a given point has
    length uniform on [1, m], so cutting a shuffled order into such lengths
    gives a uniform permutation without building its mapping.
    """
    moving = rng.permutation(n)[round(fixed_share * n):]
    cycles = []
    start, m = 0, len(moving)
    while m:
        k = int(rng.integers(1, m + 1))
        if k >= 2:
            cycles.append(moving[start:start + k])
        start += k
        m -= k
    return cycles


def _sharing_pair(rng, cycles):
    """(i, j, d): two cycles whose lengths share the factor d > 1, or None."""
    idx = rng.permutation(len(cycles)).tolist()
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            d = math.gcd(len(cycles[i]), len(cycles[j]))
            if d > 1:
                return i, j, d
    return None


def instance_text(n: int, alphabet: str, cycles, v, w) -> str:
    perm = "".join("(" + ",".join(map(str, (c + 1).tolist())) + ")" for c in cycles)
    sym = np.array(list(alphabet))
    vs = "".join(sym[v].tolist())
    ws = "".join(sym[w].tolist())
    return f"n {n}\nalphabet {alphabet}\nperm {perm}\nv {vs}\nw {ws}\n"


def orbit_case(rng, rr, n: int, alphabet: str, kind: str, fixed_share: float) -> OrbitCase:
    size = len(alphabet)
    while True:  # draw again until the kind's construction is possible
        cycles = random_cycles(rng, n, fixed_share)
        moved = sum(len(c) for c in cycles)
        pair = _sharing_pair(rng, cycles) if kind == "no-conflict" else None
        if kind == "no-fixed" and moved == n:
            continue
        if kind == "no-rotation" and not cycles:
            continue
        if kind == "no-conflict" and pair is None:
            continue
        break
    v = rng.integers(0, size, size=n).astype(np.uint8)
    if kind == "yes-periodic":
        for c in cycles:
            k = len(c)
            d = int(rng.choice([d for d in divisors(k) if d <= MAX_BLOCK]))
            v[c] = np.tile(rng.integers(0, size, size=d).astype(np.uint8), k // d)
    if kind == "no-conflict":
        # one mark per cycle: each admits exactly one rotation
        for c in (cycles[pair[0]], cycles[pair[1]]):
            v[c] = 0
            v[c[0]] = 1
    r_star = rr.randrange(math.lcm(*(len(c) for c in cycles)))
    w = power(cycles, v, r_star)
    period = None
    if kind in YES_KINDS:
        period = math.lcm(*(least_period(v[c]) for c in cycles))
    elif kind == "no-fixed":
        mask = np.ones(n, dtype=bool)
        for c in cycles:
            mask[c] = False
        j = int(rng.choice(np.flatnonzero(mask)))
        w[j] = (w[j] + rng.integers(1, size)) % size
    elif kind == "no-rotation":
        # changing one symbol changes the projection's symbol counts
        c = cycles[int(rng.integers(len(cycles)))]
        j = int(c[int(rng.integers(len(c)))])
        w[j] = (w[j] + rng.integers(1, size)) % size
    else:
        # rotate the second marked cycle by r* + delta, 0 < delta < d: the two
        # cycles then disagree mod d, so the congruences have no common solution
        i, j, d = pair
        c = cycles[j]
        s = (r_star + int(rng.integers(1, d))) % len(c)
        w[np.roll(c, -s)] = v[c]
    return OrbitCase(
        kind=kind,
        text=instance_text(n, alphabet, cycles, v, w),
        n=n,
        cycles=cycles,
        v=v,
        w=w,
        r_star=r_star if kind in YES_KINDS else None,
        period=period,
    )


def _is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin for x < 4759123141 (bases 2, 7, 61)."""
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def primes_below(limit: int, count: int) -> list[int]:
    out = []
    x = limit - 1
    while len(out) < count:
        if _is_prime(x):
            out.append(x)
        x -= 1
    return out


MAX_MODULUS_BITS = 32
BIG_PRIMES = primes_below(2**MAX_MODULUS_BITS, 16)


def system_case(rng, rr, kind: str, m: int, primes: int, max_lines: int) -> SystemCase:
    """m congruences, `primes` of them modulo primes just below 2^32."""
    moduli = [
        max(2, min(2**MAX_MODULUS_BITS, int(2 ** rng.uniform(1, MAX_MODULUS_BITS))))
        for _ in range(m)
    ]
    # the last line is left to the conflict, so a refutation always comes
    # after the whole system has been read and folded
    big = rng.choice(m - 1, size=primes, replace=False).tolist()
    for pos in big:
        moduli[pos] = BIG_PRIMES[int(rng.integers(len(BIG_PRIMES)))]
    x_star = rr.getrandbits(MAX_MODULUS_BITS * max_lines + 64)
    conflict = None
    if kind == "unsolvable":
        # two moduli made to share the small prime p; shifting one residue by
        # one then contradicts the other mod p
        i = int(rng.choice([k for k in range(m - 1) if k not in big]))
        conflict = m - 1
        p = int(rng.choice([2, 3, 5, 7]))
        for k in (i, conflict):
            moduli[k] = max(p, moduli[k] - moduli[k] % p)
    residues = [x_star % b for b in moduli]
    if conflict is not None:
        residues[conflict] = (residues[conflict] + 1) % moduli[conflict]
    text = "".join(f"{a} mod {b}\n" for a, b in zip(residues, moduli))
    return SystemCase(
        kind=kind,
        text=text,
        x_star=x_star if kind == "solvable" else None,
        lcm=math.lcm(*moduli),
    )


def stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """count draws, one uniform in each of count equal slices of [lo, hi), ascending.

    Sampling slice by slice keeps the pool's spread of sizes the same from one
    seed to the next, so pool-level figures move with the program, not the draw.
    """
    return lo + (np.arange(count) + rng.random(count)) * (hi - lo) / count


def balanced(rng, values, count: int) -> list:
    """count values cycling through `values`, each block of len(values) shuffled.

    Zipped with stratified sizes, every block of neighbouring sizes gets each value once.
    """
    blocks = -(-count // len(values))
    return [values[j] for _ in range(blocks) for j in rng.permutation(len(values))][:count]


def generate(name: str, seed: int, tiny: bool = False) -> list:
    """The pool of cases one run of workload `name` cycles through.

    tiny shrinks every size for the self-test; the construction is unchanged.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    rr = random.Random(int(rng.integers(2**63)))
    if name == "orbit-large":
        n = 3000 if tiny else 10**6
        return [orbit_case(rng, rr, n, "01", kind, 0.0) for kind in YES_KINDS]
    if name == "orbit-small-mixed":
        lo, hi = (64, 256) if tiny else (64, 4096)
        count = len(SMALL_MIX) * (1 if tiny else 20)
        log_n = stratified(rng, math.log(lo), math.log(hi), count)
        kinds = balanced(rng, SMALL_MIX, count)
        alphabets = balanced(rng, ALPHABETS, count)
        fixed_shares = balanced(rng, (0.0, 0.25), count)
        return [
            orbit_case(rng, rr, int(round(math.exp(x))), alphabet, kind, share)
            for x, kind, alphabet, share in zip(log_n, kinds, alphabets, fixed_shares)
        ]
    low, high = (16, 32) if tiny else (16, 256)
    count = 10 if tiny else 100
    lines = stratified(rng, low, high + 1, count).astype(int)
    # every pairing of planted outcome and number of 32-bit primes, equally often
    plans = balanced(rng, [(k, p) for k in ("solvable", "unsolvable") for p in range(5)], count)
    return [
        system_case(rng, rr, kind, int(m), primes, high)
        for m, (kind, primes) in zip(lines, plans)
    ]
