"""Linear-time string matching and rotation-exponent sets for cycle projections."""

from operator import index


def kmp_search_count(text, pattern):
    """All 0-based occurrences of pattern in text, plus symbol comparisons spent.

    Overlapping matches are reported.  Every equality test between two
    symbols counts exactly one comparison, both while building the failure
    table and while scanning, so the count is an exact machine-independent
    cost for the search.
    """
    n = len(text)
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    fail = [0] * m
    comparisons = 0
    k = 0
    for i in range(1, m):
        ci = pattern[i]
        while True:
            comparisons += 1
            if ci == pattern[k]:
                k += 1
                break
            if k == 0:
                break
            k = fail[k - 1]
        fail[i] = k
    positions = []
    q = 0
    for i in range(n):
        ci = text[i]
        while True:
            comparisons += 1
            if ci == pattern[q]:
                q += 1
                break
            if q == 0:
                break
            q = fail[q - 1]
        if q == m:
            positions.append(i - m + 1)
            q = fail[q - 1]
    return positions, comparisons


def rotate_right(s: str, r: int) -> str:
    """s cyclically shifted right r times (the last symbol wraps to the front)."""
    r = index(r)
    if not s:
        return s
    r %= len(s)
    if r == 0:
        return s
    return s[-r:] + s[:-r]


def rotation_exponents(vc: str, wc: str, counter=None) -> tuple[int, ...]:
    """All r in [0, k) with rotate_right(vc, r) == wc, ascending.

    Found by matching vc inside the doubled wc: an occurrence at 0-based
    offset p means vc is wc rotated left p times, i.e. wc == rotate_right(vc, p).
    Offsets >= k would repeat offset 0 and are dropped.  If a counter is
    given it is charged one word op per symbol comparison.
    """
    k = len(vc)
    if len(wc) != k:
        raise ValueError(f"projection lengths differ: {k} vs {len(wc)}")
    if k == 0:
        raise ValueError("empty projection")
    if k == 1:
        if counter is not None:
            counter.add_word_ops(1)
        return (0,) if vc == wc else ()
    positions, comparisons = kmp_search_count(wc + wc, vc)
    if counter is not None:
        counter.add_word_ops(comparisons)
    return tuple(p for p in positions if p < k)
