import pytest
from hypothesis import given, settings, strategies as st

from cyclorbit import rotate_right, rotation_exponents
from cyclorbit.congruence import CostCounter
from cyclorbit.oracle import brute_force_cycle_solutions
from cyclorbit.strmatch import kmp_search_count

short_binary = st.text(alphabet="01", min_size=1, max_size=64)
short_abc = st.text(alphabet="abc", min_size=1, max_size=64)


def naive_occurrences(text, pattern):
    m = len(pattern)
    return [i for i in range(len(text) - m + 1) if text[i : i + m] == pattern]


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
