import copy
import dataclasses
import math
import random
import sys
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from cyclorbit import (
    Cycle,
    CycleNotationError,
    Permutation,
    apply,
    apply_power,
    format_permutation,
    order,
    parse_permutation,
    primorial_permutation,
    project,
)
from cyclorbit import permutation
from cyclorbit.congruence import clip
from cyclorbit.permutation import cycles_of_mapping, first_primes


def random_permutation(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    perm0 = draw(st.permutations(list(range(1, n + 1))))
    # split the shuffled indices into consecutive chunks: disjoint cycles
    cycles = []
    i = 0
    while i < n:
        k = draw(st.integers(1, n - i))
        cycles.append(tuple(perm0[i : i + k]))
        i += k
    return Permutation(n, cycles)


permutations_st = st.composite(random_permutation)()


def binary_config(n):
    return st.text(alphabet="01", min_size=n, max_size=n)


def test_cycle_validation():
    assert len(Cycle((4, 8, 9))) == 3
    c = Cycle([4, 8, 9])
    assert isinstance(c, tuple) and c == (4, 8, 9) and c.elements is c
    with pytest.raises(ValueError):
        Cycle(())
    with pytest.raises(ValueError):
        Cycle((1, 2, 1))
    with pytest.raises(ValueError):
        Cycle((0, 1))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation(0)
    with pytest.raises(ValueError):
        Permutation(3, [(1, 4)])
    with pytest.raises(ValueError):
        Permutation(4, [(1, 2), (2, 3)])


def test_constructor_errors_name_one_clipped_index():
    big = 10**5
    huge = 10**100
    for make, message in [
        (lambda: Cycle(range(0, big)), "index 0 outside [1, inf]"),
        (lambda: Cycle([*range(1, big), 7]), "index 7 already used"),
        (lambda: Permutation(big - 1, [range(1, big + 1)]), f"index {big} outside [1, {big - 1}]"),
        (lambda: Permutation(big, [range(1, big), (5, big)]), "index 5 already used"),
        # the first bad index in cycle order, whichever check it fails
        (lambda: Permutation(3, [(2, 2, 9)]), "index 2 already used"),
        (lambda: Permutation(3, [(1, 5, 1)]), "index 5 outside [1, 3]"),
        (lambda: Permutation(3, [(1, 2), (), (0,)]), "a cycle needs at least one element"),
        # a bad index read before a read error is named instead of it
        (lambda: Permutation(3, [(2, 2), (1.5,)]), "index 2 already used"),
        (lambda: Permutation(3, [(1, 4), ()]), "index 4 outside [1, 3]"),
        (lambda: Permutation(10**30, [(7, 7), ("x",)]), "index 7 already used"),
        (lambda: Permutation(5, [(1, huge)]), f"index {clip(huge)} outside [1, 5]"),
        (lambda: Permutation(huge, [(0,)]), f"index 0 outside [1, {clip(huge)}]"),
        # past the int digit limit an index is named by its bit length
        (lambda: Permutation(1, [(1, 10**5000)]), "index <16610-bit integer> outside [1, 1]"),
        (lambda: Cycle((1, -(10**5000))), "index -<16610-bit integer> outside [1, inf]"),
        (lambda: Permutation(10**5000, [(0,)]), "index 0 outside [1, <16610-bit integer>]"),
    ]:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


@settings(max_examples=300)
@given(st.data())
def test_both_duplicate_checks_match_the_scanner(data):
    # degrees up to 32 * total take the byte marks, larger ones the set
    total = data.draw(st.integers(2, 40), label="total")
    n = data.draw(
        st.one_of(
            st.sampled_from([total, 32 * total, 32 * total + 1, 10**30]),
            st.integers(total + 1, 32 * total),
            st.integers(32 * total + 2, 64 * total),
        ),
        label="n",
    )
    if n == total:
        indices = list(data.draw(st.permutations(range(1, n + 1))))
    else:
        indices = data.draw(st.lists(st.integers(1, n), min_size=total, max_size=total,
                                     unique=True))
    bad = data.draw(st.integers(0, total - 1), label="bad")
    if data.draw(st.booleans(), label="repeat"):
        indices[bad] = indices[data.draw(st.integers(0, total - 1).filter(lambda i: i != bad))]
    else:
        indices[bad] = data.draw(st.sampled_from([0, n + 1, 2 * n + 7]))
    cuts = sorted(data.draw(st.sets(st.integers(1, total - 1), max_size=4)))
    cycles = [indices[a:b] for a, b in zip([0, *cuts], [*cuts, total])]
    text = "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)
    with pytest.raises(CycleNotationError) as scanned:
        permutation._scan_permutation(text, n)
    with pytest.raises(ValueError) as built:
        Permutation(n, cycles)
    assert f"{built.value} (at position {scanned.value.position})" == str(scanned.value)


def test_sparse_degree_names_the_repeat():
    with pytest.raises(ValueError) as exc:
        Permutation(10**30, [(1, 10**29), (10**29, 2)])
    assert str(exc.value) == "index 100000000000000000000000000000 already used"
    assert Permutation(10**30, [(1, 10**29), (2, 10**30)]).cycles == ((1, 10**29), (2, 10**30))


def test_duplicate_check_peak_stays_small():
    # the byte marks cost n bytes over what the Permutation keeps; a set of
    # the 2 * 10^5 indices cost about 12 MiB
    n = 2 * 10**5
    points = list(range(1, n + 1))
    random.Random(3).shuffle(points)
    cycles = [points[: n // 3], points[n // 3 :]]
    tracemalloc.start()
    try:
        g = Permutation(n, cycles)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.cycles) == 2
    assert peak - retained < 2 * 2**20


def test_indices_must_be_ints():
    # operator.index: a float, a string or a Decimal is refused, never rounded,
    # as an index and as the degree
    for make in [
        lambda: Permutation(3, [(1.9, 2, 3.2)]),
        lambda: Cycle(("1", "2")),
        lambda: Cycle([2.0, 3]),
        lambda: Permutation(3, [(Decimal(1), 2)]),
        lambda: Permutation(3.0, [(1, 2)]),
        lambda: Permutation(Decimal(4), [(1, 2)]),
        lambda: Permutation("3", [(1, 2)]),
    ]:
        with pytest.raises(TypeError):
            make()
    assert Permutation(3, [(True, 2)]).cycles == ((1, 2),)
    assert type(Permutation(True).n) is int


def test_permutation_is_frozen():
    g = Permutation(3, [(1, 2)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.cycles = ((1, 2, 3),)
    assert g == Permutation(3, cycles=[(1, 2)]) and hash(g) == hash(Permutation(3, [(1, 2)]))


def test_huge_valid_permutation_cannot_be_printed():
    # like str(10**5000): building it works, exact cycle notation hits the
    # digit limit; repr names each value past the limit by its bit length
    g = Permutation(10**5000, [(1, 10**4400)])
    assert g.cycles == ((1, 10**4400),)
    assert repr(g) == "Permutation(<16610-bit integer>, '(1,<14617-bit integer>)')"
    assert repr(g.cycles[0]) == "(1,<14617-bit integer>)"
    with pytest.raises(ValueError) as exc:
        format_permutation(g)
    assert str(exc.value) == "index <14617-bit integer> is past the digit limit of cycle notation"
    assert format_permutation(Permutation(10**5000, [(1, 10**4000)])) == f"(1,{10**4000})"


def test_cycle_copy_is_checked_again(monkeypatch):
    checked = []

    def spy(cycles, n=math.inf):
        cycles = list(cycles)
        checked.extend(cycles)
        return real(cycles, n)

    real = permutation._checked_cycles
    c = Cycle((1, 2))
    monkeypatch.setattr(permutation, "_checked_cycles", spy)
    d = copy.copy(c)
    assert type(d) is Cycle and d == c and checked == [(1, 2)]


@settings(max_examples=300)
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.lists(st.integers(-1, n + 2), max_size=6), max_size=6)
        )
    )
)
def test_constructor_agrees_with_scanner(case):
    # the scanner keeps its own checks, so it is an independent oracle
    n, cycles = case
    text = "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)
    try:
        expected = permutation._scan_permutation(text, n)
    except CycleNotationError:
        with pytest.raises(ValueError):
            Permutation(n, cycles)
    else:
        assert Permutation(n, cycles) == expected


def test_one_cycles_become_fixed_points():
    g = Permutation(5, [(3,), (1, 2)])
    assert g.cycles == (Cycle((1, 2)),)
    assert g == Permutation(5, [(1, 2)]) == Permutation(5, [Cycle((1, 2))])
    assert parse_permutation("(3)(1,2)", 5) == g


def test_identity():
    g = parse_permutation("", 5)
    assert g.cycles == ()
    assert order(g) == 1
    assert apply(g, "01010") == "01010"
    assert format_permutation(g) == ""


def test_cycles_of_mapping_contract():
    assert cycles_of_mapping([1, 0, 2, 4, 3]) == [[0, 1], [3, 4]]
    assert cycles_of_mapping([0, 1, 2]) == []
    assert cycles_of_mapping([1, 2, 0]) == [[0, 1, 2]]


def test_from_mapping_rejects_non_permutation():
    # [1, 1] used to walk 0 -> 1 -> 1 -> ... forever
    for mapping in ([1, 1], [0, 2]):
        with pytest.raises(ValueError, match="not a permutation"):
            cycles_of_mapping(mapping)


@given(permutations_st)
def test_from_mapping_roundtrip(g):
    # g's 0-based image table, built from its cycles, converts back to g
    images = list(range(g.n))
    for c in g.cycles:
        for t, j in enumerate(c):
            images[j - 1] = c[(t + 1) % len(c)] - 1
    h = Permutation(g.n, [[j + 1 for j in c] for c in cycles_of_mapping(images)])
    v = "".join(map(chr, range(65, 65 + g.n)))
    assert apply(h, v) == apply(g, v)
    assert order(h) == order(g)


def test_parse_error_positions():
    for text, pos, message in [
        ("(1,2", 4, "expected ',' or ')'"),
        ("(1,,2)", 3, "expected a cycle index"),
        ("(0)", 1, "index 0 outside [1, 8]"),
        ("(1,2)(2,3)", 6, "index 2 already used"),
        ("x", 0, "expected '(' but found 'x'"),
        ("(9)", 1, "index 9 outside [1, 8]"),
        ("(9,x", 1, "index 9 outside [1, 8]"),
        ("(1,1", 3, "index 1 already used"),
        ("(1,2)(2,", 6, "index 2 already used"),
        (" ( 1 2)", 5, "expected ',' or ')'"),
        ("(1,)", 3, "expected a cycle index"),
        ("()", 1, "expected a cycle index"),
        ("(1)x", 3, "expected '(' but found 'x'"),
        ("(1,2))", 5, "expected '(' but found ')'"),
        ("(1 ,2)(3", 8, "expected ',' or ')'"),
        ("(1", 2, "expected ',' or ')'"),
        # a superscript two is a digit to str.isdigit but not a decimal one
        ("(1,²)", 3, "expected a cycle index"),
        # only spaces and tabs are skipped
        ("(1,\xa02)", 3, "expected a cycle index"),
        ("(1," + "9" * 5000 + ")", 3,
         f"index has 5000 digits, more than the {sys.get_int_max_str_digits()} allowed"),
    ]:
        with pytest.raises(CycleNotationError) as exc:
            parse_permutation(text, 8)
        assert exc.value.position == pos, text
        assert str(exc.value) == f"{message} (at position {pos})", text


@given(st.text(alphabet="(),0123456789 x²٣", max_size=30), st.integers(1, 12))
def test_parse_fails_typed_or_roundtrips(text, n):
    try:
        g = parse_permutation(text, n)
    except CycleNotationError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert parse_permutation(format_permutation(g), n) == g


def scan_outcome(parse, text, n):
    try:
        return parse(text, n)
    except CycleNotationError as exc:
        return str(exc), exc.position


@given(
    st.one_of(
        st.text(alphabet="(),0123456789 x٣²", max_size=30),
        permutations_st.map(format_permutation),
    ),
    st.one_of(st.integers(1, 40), st.just(10**30)),
)
def test_parse_agrees_with_scanner(text, n):
    # the bulk pass either gives the scanner's permutation or leaves the text to it
    assert scan_outcome(parse_permutation, text, n) == scan_outcome(
        permutation._scan_permutation, text, n
    )


def test_parse_bulk_roundtrip(monkeypatch):
    mapping = list(range(10**5))
    random.Random(5).shuffle(mapping)
    g = Permutation(len(mapping), [[j + 1 for j in c] for c in cycles_of_mapping(mapping)])

    def refuse(text, n):
        raise AssertionError("the scanner was called")

    monkeypatch.setattr(permutation, "_scan_permutation", refuse)
    assert parse_permutation(format_permutation(g), g.n) == g
    # indices of any length up to the digit limit are read in bulk
    wide = Permutation(10**30, [(1, 10**29 + 7, 2), (9876543210123456789, 3)])
    assert parse_permutation(format_permutation(wide), wide.n) == wide


def test_parse_errors_left_to_scanner():
    big = "1" * 19
    for text, n, pos, message in [
        ("(1, 2)", 1, 4, "index 2 outside [1, 1]"),
        ("(0,1)", 8, 1, "index 0 outside [1, 8]"),
        ("(1,1)", 8, 3, "index 1 already used"),
        ("(1,2)(2,3)", 8, 6, "index 2 already used"),
        ("(1,٣)", 2, 3, "expected a cycle index"),
        (f"({big},{big})", 10**30, 21, f"index {big} already used"),
    ]:
        with pytest.raises(CycleNotationError) as exc:
            parse_permutation(text, n)
        assert exc.value.position == pos, text
        assert str(exc.value) == f"{message} (at position {pos})", text
    # a 19-digit index in valid notation is read like any other
    assert parse_permutation(f"(1,{big})", 10**30) == Permutation(10**30, [(1, int(big))])


def test_parse_reads_its_degree_first():
    with pytest.raises(ValueError, match=r"^degree must be >= 1, got 0$") as exc:
        parse_permutation("(1,2)", 0)
    assert not isinstance(exc.value, CycleNotationError)
    for n in ("2", None):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            parse_permutation("(1, 2)", n)


def test_parse_allows_whitespace():
    g = parse_permutation(" ( 1 , 2 )  (3,4) ", 4)
    assert g == Permutation(4, [(1, 2), (3, 4)])
    assert parse_permutation("\t(1,\t2) ", 4) == Permutation(4, [(1, 2)])


@given(permutations_st)
def test_parse_format_roundtrip(g):
    assert parse_permutation(format_permutation(g), g.n) == g


def test_apply_running_example():
    g1 = parse_permutation("(6,5,7,3,2,1)(4,8)", 9)
    g2 = parse_permutation("(6,5,7,3,2,1)(4,8,9)", 9)
    v = "010001111"
    w = "101110001"
    assert apply(g1, v) == w
    assert apply(g2, v) == w


def test_project_running_example():
    g = parse_permutation("(6,5,7,3,2,1)(4,8,9)", 9)
    assert project("010001111", g.cycles[0]) == "101010"
    assert project("101110001", g.cycles[0]) == "010101"
    assert project("010001111", g.cycles[1]) == "011"
    assert project("101110001", g.cycles[1]) == "101"


def test_project_outside_configuration():
    with pytest.raises(ValueError):
        project("0101", Cycle((2, 5)))
    # the message names a long cycle only in part
    with pytest.raises(ValueError) as exc:
        project("ab", Cycle(range(1, 10**5)))
    assert len(str(exc.value)) < 200
    with pytest.raises(ValueError):  # a cycle holding an index past the digit limit
        project("ab", Cycle((1, 10**5000)))


def test_apply_length_mismatch():
    g = Permutation(3, [(1, 2)])
    with pytest.raises(ValueError):
        apply(g, "0101")
    with pytest.raises(ValueError):
        apply_power(g, 1, "01")
    with pytest.raises(ValueError):
        apply_power(g, -1, "010")


@given(st.data())
def test_apply_power_matches_iterated_apply(data):
    g = data.draw(permutations_st)
    v = data.draw(binary_config(g.n))
    r = data.draw(st.integers(0, 3 * g.n))
    expected = v
    for _ in range(r):
        expected = apply(g, expected)
    assert apply_power(g, r, v) == expected


@given(st.data())
def test_apply_power_order_is_identity(data):
    g = data.draw(permutations_st)
    v = data.draw(binary_config(g.n))
    assert apply_power(g, order(g), v) == v


@given(permutations_st)
def test_order_is_lcm_of_cycle_lengths(g):
    n = order(g)
    assert n == math.lcm(*(len(c) for c in g.cycles))
    for c in g.cycles:
        assert n % len(c) == 0


def test_first_primes():
    assert first_primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert first_primes(0) == []
    with pytest.raises(ValueError, match="count must be >= 0"):
        first_primes(-1)


def test_primorial_family():
    degrees = [primorial_permutation(i).n for i in range(1, 6)]
    assert degrees == [2, 5, 10, 17, 28]
    orders = [order(primorial_permutation(i)) for i in range(1, 6)]
    assert orders == [2, 6, 30, 210, 2310]
    g = primorial_permutation(4)
    assert [len(c) for c in g.cycles] == [2, 3, 5, 7]
    # consecutive index blocks, nothing shared, nothing fixed
    assert sorted(e for c in g.cycles for e in c) == list(range(1, 18))
    with pytest.raises(ValueError):
        primorial_permutation(0)


def test_moved_mask():
    g = Permutation(5, [(2, 4)])
    assert list(g.moved_mask()) == [0, 1, 0, 1, 0]


@pytest.mark.parametrize(
    ("n", "cycles"),
    [
        (8, [(2, 4, 7), (5,), (1, 8)]),  # n <= 32 * total: the duplicate check's marks
        (10**4, [(2, 4, 7), (5,), (1, 8)]),  # past it: a set, and the mask is made anew
        (6, [(1,), (2,), (3, 6)]),
        (3, [(1,), (2,), (3,)]),
    ],
)
def test_moved_mask_on_both_duplicate_checks(n, cycles):
    g = Permutation(n, cycles)
    assert (g._moved is not None) == (n <= 32 * sum(map(len, cycles)))
    mask = g.moved_mask()
    assert mask == permutation._marks(g.cycles, n)
    mask[:] = b"\7" * n  # the caller's copy; the next call is unchanged
    assert g.moved_mask() == permutation._marks(g.cycles, n)


def test_kept_marks_leave_equality_alone():
    # the 1-cycles put this one on the byte marks; the other takes the set
    dense = Permutation(100, [(1, 2), *[(j,) for j in range(3, 40)]])
    sparse = Permutation(100, [(1, 2)])
    assert dense == sparse and hash(dense) == hash(sparse)
    assert repr(dense) == repr(sparse) == "Permutation(100, '(1,2)')"
