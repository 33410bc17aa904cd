"""Brute-force ground truth for orbit questions.

Walks g^0 v, g^1 v, ... through one full period and records every hit.
Quadratic and proud of it: shares no logic with the reduction, so agreement
between the two is real evidence.
"""

from __future__ import annotations

from .congruence import ArithmeticProgression, clip
from .orbit import NOT_IN_ORBIT, OrbitAnswer
from .permutation import Configuration, Permutation, order
from .strmatch import rotate_right

DEFAULT_BOUND = 10**6


class OrderBoundExceeded(RuntimeError):
    """order(g) is too large for exhaustive enumeration."""


def brute_force_cycle_solutions(vc: str, wc: str) -> tuple[int, ...]:
    """All h in [0, k) with rotate_right(vc, h) == wc, by trying each h."""
    if len(vc) != len(wc):
        raise ValueError(f"projection lengths differ: {len(vc)} vs {len(wc)}")
    return tuple(h for h in range(len(vc)) if rotate_right(vc, h) == wc)


def orbit_scan(mapping, v, w, max_steps):
    """All r in [0, max_steps) with g^r v == w, stepping g once per candidate.

    mapping is the 0-based image table of g; v and w are equal-length lists
    of symbol codes.  The configuration is advanced incrementally, never
    recomputed from scratch, so the scan costs O(n * max_steps).
    """
    n = len(mapping)
    if len(v) != n or len(w) != n:
        raise ValueError("configuration length does not match the mapping")
    # nxt[i] = cur[inv[i]]: position i of g(x) holds the symbol of x at g^-1(i)
    inv = [0] * n
    for j in range(n):
        inv[mapping[j]] = j
    cur = list(v)
    tgt = list(w)
    hits = []
    for r in range(max_steps):
        if cur == tgt:
            hits.append(r)
        if r + 1 < max_steps:
            cur = [cur[j] for j in inv]
    return hits


def brute_force_orbit(
    g: Permutation,
    v: Configuration,
    w: Configuration,
    bound: int = DEFAULT_BOUND,
) -> OrbitAnswer:
    """Exact orbit answer by enumerating every exponent in [0, order(g)).

    Raises OrderBoundExceeded when order(g) > bound rather than silently
    truncating the scan.
    """
    if len(v) != g.n or len(w) != g.n:
        raise ValueError(
            f"configuration lengths {len(v)}, {len(w)} do not match degree {clip(g.n)}"
        )
    n_steps = order(g)
    if n_steps > bound:
        raise OrderBoundExceeded(f"order {clip(n_steps)} exceeds the bound {clip(bound)}")
    codes = {ch: i for i, ch in enumerate(sorted(set(v) | set(w)))}
    hits = orbit_scan(
        g.mapping(), [codes[ch] for ch in v], [codes[ch] for ch in w], n_steps
    )
    if not hits:
        return NOT_IN_ORBIT
    first = hits[0]
    gap = hits[1] - hits[0] if len(hits) > 1 else n_steps
    # hits over one full period must be evenly spaced with gap | order
    if n_steps % gap or hits != list(range(first, n_steps, gap)) or first >= gap:
        raise RuntimeError(
            f"orbit scan hits {hits[:8]} are not one progression mod {clip(n_steps)}"
        )
    return OrbitAnswer(True, ArithmeticProgression(first, gap))
