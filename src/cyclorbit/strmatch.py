"""Linear-time string matching and rotation-exponent sets for cycle projections.

kmp_search_count is Knuth-Morris-Pratt with the exact count of symbol
comparisons the textbook per-symbol loop makes: n + (m - 1) first tests,
one at each text position and at each pattern position after the first,
plus one per fallback through the failure table.  Once the loop has seen a
streak of first-try successes it measures the rest of the run in one call
of _agreement, and after a full match Galil's rule finds the matches that
follow one period apart in one such call.  Positions and count equal the
per-symbol loop's on every input.
"""

from operator import index

from .congruence import CostCounter, expect

# The first step of a run measurement and the streak that triggers one, and
# the most symbols one measurement covers.
_PROBE = 32
_CAP = 1 << 16


def _agreement(a, i, b, j, limit):
    """Length of the common prefix of a[i:i + limit] and b[j:j + limit], at most _CAP.

    Neither slice may be shorter than limit.  One loop of slice comparisons:
    the step starts at _PROBE, doubles after a slice that matches and halves
    after one that differs or would pass the limit, so the exact end takes
    O(log _CAP) comparisons that copy O(run + _PROBE) symbols.  They are
    str.startswith, never str.find, so the counted search shares no code
    with an uncounted find-based one.
    """
    limit = min(limit, _CAP)
    done = 0
    step = _PROBE
    while step:
        if step <= limit - done and a.startswith(b[j + done:j + done + step], i + done):
            done += step
            step *= 2
        else:
            step //= 2
    return done


def kmp_search_count(text, pattern):
    """All 0-based occurrences of str pattern in str text, plus symbol comparisons spent.

    Overlapping matches are reported.  The count is that of the textbook
    loop, one per equality test between two symbols while building the
    failure table and while scanning, so it is an exact machine-independent
    cost for the search.  That loop tests each text position, and each
    pattern position after the first, once before any fallback, so the
    count is n + (m - 1) + the fallbacks, and only fallbacks are counted
    as they happen.

    A streak of need first-try successes (need starts at _PROBE; a success
    reached after a fallback starts no streak) hands the rest of the run to
    one _agreement call: the failure table takes it in one slice assignment
    and the scan advances its state by it.  A full match reached that way
    follows Galil's rule: with p = m - fail[m - 1] the next match starts p
    symbols later for as long as text[j] == text[j - p], which one call of
    the text against itself measures.  A run of _PROBE or more resets need
    and a shorter one doubles it, up to _CAP, so a text that keeps breaking
    runs just past the streak pays few calls.
    """
    n = len(expect(text, str, "text"))
    m = len(expect(pattern, str, "pattern"))
    if m == 0:
        raise ValueError("empty pattern")
    fail = [0] * m
    fallbacks = 0
    k = 0
    i = 1
    need = _PROBE
    stop = need  # a first-try success at index stop ends a streak of need
    while True:
        for i in range(i, m):
            c = pattern[i]
            if c == pattern[k]:
                k += 1
                fail[i] = k
                if i >= stop:
                    break
            else:
                stop = i + need
                while k:
                    k = fail[k - 1]
                    fallbacks += 1
                    if c == pattern[k]:
                        k += 1
                        break
                fail[i] = k
        else:
            break
        i += 1
        run = _agreement(pattern, i, pattern, k, m - i)
        fail[i:i + run] = range(k + 1, k + 1 + run)
        i += run
        k += run
        need = _PROBE if run >= _PROBE else min(2 * need, _CAP)
        stop = i - 1 + need

    border = fail[m - 1]
    p = m - border
    positions = []
    q = 0
    i = 0
    need = _PROBE
    stop = need - 1
    while True:
        for i in range(i, n):
            c = text[i]
            if c == pattern[q]:
                q += 1
                if i >= stop:
                    break
                if q == m:
                    positions.append(i - m + 1)
                    q = border
            else:
                stop = i + need
                while q:
                    q = fail[q - 1]
                    fallbacks += 1
                    if c == pattern[q]:
                        q += 1
                        break
        else:
            break
        i += 1
        if q < m:
            run = _agreement(text, i, pattern, q, min(n - i, m - q))
            i += run
            q += run
        if q == m:
            run = _agreement(text, i, text, i - p, n - i)
            positions.extend(range(i - m, i - m + run + 1, p))
            i += run
            q = border + run % p
        need = _PROBE if run >= _PROBE else min(2 * need, _CAP)
        stop = i - 1 + need
    return positions, n + m - 1 + fallbacks


def rotate_right(s: str, r: int) -> str:
    """s, a str, cyclically shifted right r times (the last symbol wraps to the front)."""
    expect(s, str, "s")
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
    which repeats offset 0 and is dropped.  If a counter is given (a
    CostCounter, else TypeError) it is charged one word op per symbol
    comparison.
    """
    expect(counter, CostCounter, "counter", optional=True)
    k = len(expect(vc, str, "vc"))
    if len(expect(wc, str, "wc")) != k:
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
