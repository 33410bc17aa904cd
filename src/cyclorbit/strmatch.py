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
    """s, a str, cyclically shifted right r times (the last symbol wraps to the front)."""
    if not isinstance(s, str):
        raise TypeError(f"s must be a str, got {type(s).__name__}")
    r = index(r)
    if not s:
        return s
    r %= len(s)
    return s[-r:] + s[:-r]


def rotation_exponents(vc: str, wc: str, counter=None) -> tuple[int, ...]:
    """All r in [0, k) with rotate_right(vc, r) == wc, ascending, for str vc and wc.

    Found by matching vc inside the doubled wc: an occurrence at 0-based
    offset p means vc is wc rotated left p times, i.e. wc == rotate_right(vc, p).
    In the 2k symbols of the doubled wc the only offset >= k is k itself,
    which repeats offset 0 and is dropped.  If a counter is given it is
    charged one word op per symbol comparison.
    """
    if not (isinstance(vc, str) and isinstance(wc, str)):
        raise TypeError(f"projections must be str, got {type(vc).__name__}, {type(wc).__name__}")
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
    if positions and positions[-1] == k:
        positions.pop()
    return tuple(positions)
