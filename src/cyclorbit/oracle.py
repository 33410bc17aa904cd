"""Brute-force ground truth for orbit questions.

Walks g^0 v, g^1 v, ... through one full period and records every hit,
moving the symbols of v by a gather table that it builds from g's cycles.
Quadratic and proud of it: shares no logic with the reduction, so agreement
between the two is real evidence.
"""

from __future__ import annotations

from operator import index

from .congruence import ArithmeticProgression, clip
from .orbit import NOT_IN_ORBIT, OrbitAnswer
from .permutation import Configuration, Permutation, order
from .strmatch import rotate_right

DEFAULT_BOUND = 10**6
WORK_BOUND = 10**8  # symbol-steps, a few seconds of orbit_scan


class OrderBoundExceeded(RuntimeError):
    """order(g), or the n * order(g) symbol-steps of its scan, is too large
    for exhaustive enumeration."""


def brute_force_cycle_solutions(vc: str, wc: str) -> tuple[int, ...]:
    """All h in [0, k) with rotate_right(vc, h) == wc, by trying each h."""
    if len(vc) != len(wc):
        raise ValueError(f"projection lengths differ: {len(vc)} vs {len(wc)}")
    return tuple(h for h in range(len(vc)) if rotate_right(vc, h) == wc)


def orbit_scan(g: Permutation, v: Configuration, w: Configuration, max_steps: int):
    """All r in [0, max_steps) with g^r v == w, stepping g once per candidate.

    v and w are configurations of g's degree.  The configuration is advanced
    incrementally, never recomputed from scratch, so the scan costs
    O(n * max_steps).
    """
    # nxt[i] = cur[inv[i]]: position i of g(x) holds the symbol of x at g^-1(i)
    inv = list(range(g.n))
    for c in g.cycles:
        for t, j in enumerate(c):
            inv[j - 1] = c[t - 1] - 1  # g sends c[t - 1] to c[t]
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

    Raises OrderBoundExceeded when order(g) > bound, or when the scan's
    n * order(g) symbol-steps exceed WORK_BOUND, rather than silently
    truncating the scan.  TypeError unless g is a Permutation, v and w are
    str and bound an int.
    """
    if not isinstance(g, Permutation):
        raise TypeError(f"g must be a Permutation, got {type(g).__name__}")
    if not (isinstance(v, str) and isinstance(w, str)):
        raise TypeError(f"configurations must be str, got {type(v).__name__}, {type(w).__name__}")
    if len(v) != g.n or len(w) != g.n:
        raise ValueError(
            f"configuration lengths {len(v)}, {len(w)} do not match degree {clip(g.n)}"
        )
    n_steps = order(g)
    if n_steps > index(bound):
        raise OrderBoundExceeded(f"order {clip(n_steps)} exceeds the bound {clip(bound)}")
    if g.n * n_steps > WORK_BOUND:
        raise OrderBoundExceeded(
            f"{clip(g.n)} symbols times order {clip(n_steps)} exceeds the work bound "
            f"{WORK_BOUND} symbol-steps"
        )
    hits = orbit_scan(g, v, w, n_steps)
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
