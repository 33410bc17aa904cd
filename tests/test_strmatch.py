import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclorbit import rotate_right, rotation_exponents, strmatch
from cyclorbit.congruence import CostCounter
from cyclorbit.oracle import brute_force_cycle_solutions
from cyclorbit.strmatch import kmp_search_count

short_binary = st.text(alphabet="01", min_size=1, max_size=64)
short_abc = st.text(alphabet="abc", min_size=1, max_size=64)


def naive_occurrences(text, pattern):
    m = len(pattern)
    return [i for i in range(len(text) - m + 1) if text[i : i + m] == pattern]


def reference_kmp_search_count(text, pattern):
    """The per-symbol KMP loop that kmp_search_count replaced, kept as the count oracle."""
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


@st.composite
def search_pairs(draw):
    """(text, pattern) of four kinds, texts of up to about 300 symbols."""
    alpha = draw(st.sampled_from(["0", "01", "abc", "abαβ"]))
    kind = draw(st.sampled_from(["random", "periodic", "rotation", "flipped"]))
    if kind == "random":
        text = draw(st.text(alphabet=alpha, max_size=300))
        pattern = draw(st.text(alphabet=alpha, min_size=1, max_size=80))
        return text, pattern
    block = draw(st.text(alphabet=alpha, min_size=1, max_size=8))
    k = draw(st.integers(1, 150))
    if kind == "periodic" or (kind == "flipped" and draw(st.booleans())):
        start = draw(st.integers(0, len(block) - 1))
        text = (block * (300 // len(block) + 1))[: draw(st.integers(1, 300))]
        pattern = (block * k)[start : start + k]
    else:
        if draw(st.booleans()):
            pattern = (block * k)[:k]
        else:
            pattern = draw(st.text(alphabet=alpha, min_size=k, max_size=k))
        text = rotate_right(pattern, draw(st.integers(0, k - 1))) * 2
    if kind == "flipped":
        j = draw(st.integers(0, len(text) - 1))
        other = draw(st.sampled_from([c for c in alpha + "x" if c != text[j]]))
        text = text[:j] + other + text[j + 1 :]
    return text, pattern


def test_running_example_match_positions():
    positions, _ = kmp_search_count("101010101010", "010101")
    assert positions == [1, 3, 5]


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        kmp_search_count("0101", "")


def test_overlapping_matches():
    assert kmp_search_count("aaaa", "aa")[0] == [0, 1, 2]


@given(st.data())
def test_kmp_matches_naive_scan(data):
    alpha = data.draw(st.sampled_from(["01", "abc"]))
    text = data.draw(st.text(alphabet=alpha, min_size=0, max_size=80))
    pattern = data.draw(st.text(alphabet=alpha, min_size=1, max_size=12))
    positions, _ = kmp_search_count(text, pattern)
    assert positions == naive_occurrences(text, pattern)


@given(st.data())
def test_kmp_comparisons_linear(data):
    alpha = data.draw(st.sampled_from(["01", "abc"]))
    text = data.draw(st.text(alphabet=alpha, min_size=0, max_size=300))
    pattern = data.draw(st.text(alphabet=alpha, min_size=1, max_size=40))
    _, comparisons = kmp_search_count(text, pattern)
    assert comparisons <= 2 * (len(text) + len(pattern))


@settings(max_examples=400)
@given(search_pairs())
def test_kmp_positions_and_count_equal_the_per_symbol_loop(pair):
    text, pattern = pair
    assert kmp_search_count(text, pattern) == reference_kmp_search_count(text, pattern)


@settings(max_examples=400)
@given(search_pairs(), st.integers(1, 4), st.integers(1, 4))
def test_kmp_count_equal_with_tiny_probe_and_cap(pair, probe, cap):
    # with the streak threshold and probe cap at 1-4, short strings reach the
    # run skip in both phases, every doubling and the binary search
    text, pattern = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strmatch, "_PROBE", probe)
        mp.setattr(strmatch, "_CAP", cap)
        assert kmp_search_count(text, pattern) == reference_kmp_search_count(text, pattern)


def test_kmp_large_periodic_count_pinned():
    vc = "011" * 10**5
    text = rotate_right(vc, 7) * 2
    positions, comparisons = kmp_search_count(text, vc)
    assert positions == list(range(1, 3 * 10**5 + 1, 3))
    assert comparisons == 899_999  # the per-symbol loop's count
    assert (positions, comparisons) == reference_kmp_search_count(text, vc)


class CountingStr(str):
    """A str that counts its startswith calls, the slice comparisons of _agreement."""

    comparisons = 0

    def startswith(self, *args):
        self.comparisons += 1
        return super().startswith(*args)


def naive_agreement(a, i, b, j, limit):
    t = 0
    while t < limit and a[i + t] == b[j + t]:
        t += 1
    return t


@st.composite
def agreement_args(draw):
    """(a, i, b, j, limit) with both slices limit long: random, periodic or flipped."""
    alpha = draw(st.sampled_from(["0", "01", "abc"]))
    kind = draw(st.sampled_from(["random", "periodic", "flipped"]))
    if kind == "random":
        a = draw(st.text(alphabet=alpha, max_size=200))
        b = draw(st.text(alphabet=alpha, max_size=200))
        return a, 0, b, 0, min(len(a), len(b))
    block = draw(st.text(alphabet=alpha, min_size=1, max_size=6))
    a = b = (block * (200 // len(block) + 1))[: draw(st.integers(1, 200))]
    if kind == "flipped":
        t = draw(st.integers(0, len(a) - 1))
        b = a[:t] + "x" + a[t + 1 :]
    j = draw(st.integers(0, len(b)))
    i = draw(st.sampled_from([draw(st.integers(0, len(a))), j % len(block)]))
    limit = draw(st.integers(0, min(len(a) - i, len(b) - j)))
    return a, i, b, j, limit


def _flipped_zeros(flip, n=200_000):
    return "0" * n, 0, "0" * flip + "1" + "0" * (n - flip - 1), 0, 150_000


@settings(max_examples=400)
@given(agreement_args(), st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4)))
@example(_flipped_zeros(70_000), None)  # stops at the 64 Ki cap
@example(_flipped_zeros(40_000), None)
@example(_flipped_zeros(5), None)  # a run shorter than the first step
def test_agreement_is_the_exact_capped_common_prefix(args, constants):
    a, i, b, j, limit = args
    a = CountingStr(a)
    with pytest.MonkeyPatch.context() as mp:
        if constants is not None:
            mp.setattr(strmatch, "_PROBE", constants[0])
            mp.setattr(strmatch, "_CAP", constants[1])
        expected = min(naive_agreement(a, i, b, j, limit), strmatch._CAP)
        assert strmatch._agreement(a, i, b, j, limit) == expected
        # the step doubles, so a run takes logarithmically many slice comparisons
        assert a.comparisons <= 3 * strmatch._CAP.bit_length()


def _random_rotation_pair(k):
    rng = random.Random(0)
    vc = "".join(rng.choice("01") for _ in range(k))
    return rotate_right(vc, 12_345) * 2, vc


# (text, pattern) builders, each with n + m >= 3 * 10**5: a^(k-1)b in a^2k,
# 0^40 1 in (0^33 1)^N, (01)^20 2 in (01)^N, two rotation YES pairs, and ab
# in (abc)^N, whose matches are one period apart but break at once
ADVERSARIAL = {
    "a-run-then-b": lambda: ("a" * 200_000, "a" * 99_999 + "b"),
    "zero-runs-one-short": lambda: (("0" * 33 + "1") * 9000, "0" * 40 + "1"),
    "alternating-then-2": lambda: ("01" * 150_000, "01" * 20 + "2"),
    "random-yes": lambda: _random_rotation_pair(10**5),
    "period-1-yes": lambda: ("0" * 200_000, "0" * 100_000),
    "matches-without-runs": lambda: ("abc" * 100_000, "ab"),
}


@pytest.mark.parametrize("name", list(ADVERSARIAL))
def test_run_probes_stay_logarithmic(name, monkeypatch):
    # a probe fires only after a streak of first-try successes, and a probe
    # that finds no run doubles the streak the next one needs, so inputs
    # that would invite a probe per symbol pay a few in total
    text, pattern = ADVERSARIAL[name]()
    assert len(text) + len(pattern) >= 3 * 10**5
    calls = 0
    agreement = strmatch._agreement

    def counted(*args):
        nonlocal calls
        calls += 1
        return agreement(*args)

    monkeypatch.setattr(strmatch, "_agreement", counted)
    kmp_search_count(text, pattern)
    assert calls <= math.log2(len(text) + len(pattern))


def test_long_runs_leave_the_per_symbol_loop(monkeypatch):
    # on a period-1 YES nearly every symbol of the table and of the scan is
    # measured by slice comparison, not stepped through one at a time
    measured = 0
    agreement = strmatch._agreement

    def summed(*args):
        nonlocal measured
        run = agreement(*args)
        measured += run
        return run

    monkeypatch.setattr(strmatch, "_agreement", summed)
    text, pattern = ADVERSARIAL["period-1-yes"]()
    kmp_search_count(text, pattern)
    assert measured >= 0.99 * (len(text) + len(pattern))


def test_rotate_right():
    assert rotate_right("abc", 1) == "cab"
    assert rotate_right("abc", 3) == "abc"
    assert rotate_right("abc", 5) == "bca"
    assert rotate_right("", 7) == ""
    assert rotate_right("x", 4) == "x"


def test_rotation_exponents_running_example():
    assert rotation_exponents("101010", "010101") == (1, 3, 5)
    assert rotation_exponents("01", "10") == (1,)
    assert rotation_exponents("011", "101") == (1,)
    assert rotation_exponents("0", "0") == (0,)
    assert rotation_exponents("0", "1") == ()
    assert rotation_exponents("1100", "0011") == (2,)


def test_rotation_exponents_length_mismatch():
    with pytest.raises(ValueError):
        rotation_exponents("01", "011")
    with pytest.raises(ValueError):
        rotation_exponents("", "")


@settings(max_examples=300)
@given(st.data())
def test_rotation_exponents_match_brute_force(data):
    # the load-bearing direction check: the match offset in the doubled
    # target IS the right-rotation count, compared against trying them all
    vc = data.draw(st.one_of(short_binary, short_abc))
    k = len(vc)
    if data.draw(st.booleans()):
        wc = rotate_right(vc, data.draw(st.integers(0, k - 1)))
    else:
        wc = data.draw(st.text(alphabet=sorted(set(vc)) or "01", min_size=k, max_size=k))
    assert rotation_exponents(vc, wc) == brute_force_cycle_solutions(vc, wc)


@given(st.data())
def test_rotation_exponents_form_progression(data):
    vc = data.draw(short_binary)
    k = len(vc)
    wc = rotate_right(vc, data.draw(st.integers(0, k - 1)))
    exps = rotation_exponents(vc, wc)
    assert exps, "a forced rotation must be found"
    gap = exps[1] - exps[0] if len(exps) > 1 else k
    assert k % gap == 0
    assert list(exps) == list(range(exps[0], k, gap))


def test_counter_charged_per_comparison():
    counter = CostCounter()
    _, comparisons = kmp_search_count("101010101010", "010101")
    rotation_exponents("010101", "101010", counter)
    assert counter.word_ops == comparisons  # same text/pattern sizes by symmetry
    single = CostCounter()
    rotation_exponents("a", "a", single)
    assert single.word_ops == 1


@pytest.mark.parametrize(
    ("vc", "wc", "expected", "comparisons"),
    [
        pytest.param("a", "a", (0,), 1, id="a-1"),
        pytest.param("aa", "aa", (0, 1), 5, id="a-2"),
        pytest.param("a" * 10**5, "a" * 10**5, tuple(range(10**5)), 3 * 10**5 - 1, id="a-100000"),
        pytest.param("ab" * 3, "ba" * 3, (1, 3, 5), 17, id="ab-6"),
    ],
)
def test_offset_k_is_dropped_and_counts_stay(vc, wc, expected, comparisons):
    # doubled wc == doubled vc puts a last match at offset k, which repeats 0
    counter = CostCounter()
    assert rotation_exponents(vc, wc, counter) == expected
    assert counter.word_ops == comparisons
    if len(vc) > 1:
        assert kmp_search_count(wc + wc, vc)[1] == comparisons
