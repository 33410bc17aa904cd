import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclorbit import (
    EMPTY,
    ArithmeticProgression,
    CongruenceSystem,
    CoprimeBase,
    CostCounter,
    Permutation,
    StirlingTable,
    SystemFormatError,
    apply,
    apply_power,
    asymptotic_ratio_report,
    brute_force_orbit,
    extended_gcd,
    factorize,
    naive_intersection,
    primorial_permutation,
    progression,
    reduce,
    run_primorial_scaling,
    run_random_scaling,
    solve_linear_congruence,
    solve_system,
)

small_systems = st.lists(
    st.integers(1, 12).flatmap(
        lambda b: st.tuples(st.integers(0, b - 1), st.just(b))
    ),
    min_size=0,
    max_size=4,
).map(lambda eqs: CongruenceSystem(tuple(eqs)))


def test_progression_validation():
    assert ArithmeticProgression(0, 1).period == 1
    with pytest.raises(ValueError):
        ArithmeticProgression(1, None)
    with pytest.raises(ValueError):
        ArithmeticProgression(None, 2)
    with pytest.raises(ValueError):
        ArithmeticProgression(2, 2)
    with pytest.raises(ValueError):
        ArithmeticProgression(0, 0)
    assert progression(17, 5) == ArithmeticProgression(2, 5)


def test_progression_membership_and_str():
    p = ArithmeticProgression(1, 6)
    assert 1 in p and 7 in p and 13 in p
    assert 3 not in p and 0 not in p
    assert str(p) == "1 + 6 Z"
    assert EMPTY.is_empty
    assert 5 not in EMPTY
    assert str(EMPTY) == "EMPTY"


def test_system_validation_and_text():
    sys_ = CongruenceSystem(((1, 2), (1, 3)))
    assert sys_.satisfied_by(7)
    assert not sys_.satisfied_by(3)
    assert sys_.to_text() == "1 mod 2\n1 mod 3"
    assert CongruenceSystem.from_text("# comment\n\n1 mod 2\n 1 mod 3 ") == sys_
    with pytest.raises(ValueError):
        CongruenceSystem(((2, 2),))
    with pytest.raises(ValueError):
        CongruenceSystem(((0, 0),))


def test_system_from_text_errors():
    for text, line in [
        ("1 mod", 1),
        ("1 modulo 2", 1),
        ("1 mod 2\nx mod 3", 2),
        ("1 mod 2\n5 mod 3", 2),
        ("1 mod 0", 1),
        # a range error comes before a later format error
        ("1 mod 2\n5 mod 3\n1 mod 5\n1 modulo 7", 2),
    ]:
        with pytest.raises(SystemFormatError) as exc:
            CongruenceSystem.from_text(text)
        assert exc.value.line == line, text


def test_system_from_text_echoes_the_parsed_integers():
    # text and tuples share one equation check, so both word an error alike
    for text, message in [
        ("05 mod 3", "line 1: residue 5 not in [0, 3)"),
        ("1 mod 2\n0 mod -0", "line 2: modulus must be >= 1, got 0"),
    ]:
        with pytest.raises(SystemFormatError) as exc:
            CongruenceSystem.from_text(text)
        assert str(exc.value) == message


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_extended_gcd(a, b):
    g, x = extended_gcd(a, b)
    assert g == math.gcd(a, b)
    # such an x gives a*x + b*y == g for some y
    if b:
        assert (a * x - g) % b == 0
    else:
        assert x == 1


def test_solve_linear_congruence_known_cases():
    assert solve_linear_congruence(2, 1, 4) is EMPTY
    assert solve_linear_congruence(1, 3, 5) == ArithmeticProgression(3, 5)
    assert solve_linear_congruence(4, 2, 6) == ArithmeticProgression(2, 3)
    assert solve_linear_congruence(0, 0, 7) == ArithmeticProgression(0, 1)
    assert solve_linear_congruence(0, 3, 7) is EMPTY
    with pytest.raises(ValueError):
        solve_linear_congruence(1, 1, 0)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 60))
def test_solve_linear_congruence_matches_scan(a, b, n):
    got = solve_linear_congruence(a, b, n)
    truth = {x for x in range(n) if (a * x - b) % n == 0}
    if got.is_empty:
        assert truth == set()
    else:
        assert n % got.period == 0
        assert {x for x in range(n) if x in got} == truth
        assert got.offset == min(truth)


def test_solve_system_known_cases():
    assert solve_system(CongruenceSystem(((1, 2), (1, 3)))) == ArithmeticProgression(1, 6)
    assert solve_system(CongruenceSystem(((2, 4), (0, 6)))) == ArithmeticProgression(6, 12)
    assert solve_system(CongruenceSystem(())) == ArithmeticProgression(0, 1)
    # the canonical unsolvable system
    assert solve_system(CongruenceSystem(((0, 2), (1, 2)))) is EMPTY
    assert solve_system(CongruenceSystem(((1, 4), (3, 8)))) is EMPTY
    assert solve_system(CongruenceSystem(((1, 2), (1, 2)))) == ArithmeticProgression(1, 2)


@settings(max_examples=300)
@given(small_systems)
def test_solve_system_matches_naive_oracle(sys_):
    lcm = math.lcm(*(b for _, b in sys_)) if len(sys_) else 1
    assume(lcm <= 20000)
    assert solve_system(sys_) == naive_intersection(sys_)


@settings(max_examples=300)
@given(small_systems)
def test_solve_system_solution_properties(sys_):
    sol = solve_system(sys_)
    if not sol.is_empty:
        # period is exactly the lcm, offset is the least solution
        assert sol.period == math.lcm(*(b for _, b in sys_))
        assert sys_.satisfied_by(sol.offset)
        assert sys_.satisfied_by(sol.offset + sol.period)
        assert not any(sys_.satisfied_by(x) for x in range(sol.offset))


def test_naive_intersection_bound():
    big = CongruenceSystem(((0, 997), (0, 991), (0, 983)))
    with pytest.raises(ValueError):
        naive_intersection(big, scan_bound=10**6)


def test_naive_intersection_singleton_period():
    # one equation: every residue class member is a hit, period = modulus
    assert naive_intersection(CongruenceSystem(((3, 7),))) == ArithmeticProgression(3, 7)
    assert naive_intersection(CongruenceSystem(())) == ArithmeticProgression(0, 1)
    assert naive_intersection(CongruenceSystem(((0, 2), (1, 2)))) is EMPTY


@pytest.mark.parametrize("hits", [{0, 1, 3}, {0, 4}])
def test_naive_intersection_progression_check_raises(monkeypatch, hits):
    # {0, 1, 3} is not evenly spaced; the gap of {0, 4} does not divide the span 6
    monkeypatch.setattr(CongruenceSystem, "satisfied_by", lambda self, x: x in hits)
    with pytest.raises(RuntimeError):
        naive_intersection(CongruenceSystem(((0, 6),)))


def test_cost_counter_word_charges():
    c = CostCounter()
    c.charge(1, 1)
    assert c.word_ops == 1 and c.max_bits == 1
    c.charge(2**70, 3)
    assert c.word_ops == 3 and c.max_bits == 71
    c.add_word_ops(5)
    assert c.word_ops == 8
    c.observe(2**200)
    assert c.max_bits == 201 and c.word_ops == 8
    # a negative operand charges as its absolute value
    neg = CostCounter()
    neg.charge(-1, -1)
    neg.charge(-(2**70), 3)
    neg.add_word_ops(5)
    neg.observe(-(2**200))
    assert (neg.word_ops, neg.max_bits) == (c.word_ops, c.max_bits)


def test_solver_cost_scales_with_operand_width():
    # same equation count, much wider moduli: the counter must notice
    small = CongruenceSystem(((1, 3), (2, 5), (3, 7)))
    wide_moduli = [2**89 - 1, 2**107 - 1, 2**127 - 1]
    wide = CongruenceSystem(tuple((1, m) for m in wide_moduli))
    c_small, c_wide = CostCounter(), CostCounter()
    solve_system(small, c_small)
    solve_system(wide, c_wide)
    assert not solve_system(wide).is_empty
    assert c_wide.max_bits > 200
    assert c_wide.word_ops > c_small.word_ops
    assert c_small.word_ops == 43  # only the cofactor the fold reads is charged


HUGE = -(10**5000)  # past the 4300-digit limit for int-to-str conversion


@pytest.mark.parametrize(
    "call, words",
    [
        pytest.param(lambda: Permutation(HUGE), "degree must be >= 1, got ", id="Permutation"),
        pytest.param(lambda: CongruenceSystem(((0, HUGE),)), "modulus must be >= 1, got ",
                     id="CongruenceSystem-modulus"),
        pytest.param(lambda: CongruenceSystem(((-HUGE, 3),)), "residue ",
                     id="CongruenceSystem-residue"),
        pytest.param(lambda: ArithmeticProgression(0, HUGE), "period must be >= 1, got ",
                     id="ArithmeticProgression-period"),
        pytest.param(lambda: ArithmeticProgression(-HUGE, 3), "offset ",
                     id="ArithmeticProgression-offset"),
        pytest.param(lambda: progression(0, HUGE), "period must be >= 1, got ", id="progression"),
        pytest.param(lambda: apply_power(Permutation(2, [(1, 2)]), HUGE, "ab"),
                     "exponent must be >= 0, got ", id="apply_power"),
        pytest.param(lambda: factorize(HUGE, CoprimeBase()), "modulus must be >= 1, got ",
                     id="factorize"),
        pytest.param(lambda: apply(Permutation(-HUGE), "ab"),
                     "configuration length 2 does not match degree ", id="apply"),
        pytest.param(lambda: solve_linear_congruence(1, 0, HUGE), "modulus must be >= 1, got ",
                     id="solve_linear_congruence"),
        pytest.param(lambda: naive_intersection(CongruenceSystem(((0, -HUGE),))), "lcm ",
                     id="naive_intersection"),
        pytest.param(lambda: reduce(Permutation(-HUGE), "ab", "ab"),
                     "configuration length 2 does not match degree ", id="reduce"),
        pytest.param(lambda: brute_force_orbit(Permutation(-HUGE), "ab", "ab"),
                     "configuration lengths 2, 2 do not match degree ", id="brute_force_orbit"),
        pytest.param(lambda: primorial_permutation(HUGE), "need i >= 1, got ",
                     id="primorial_permutation"),
        pytest.param(lambda: StirlingTable(HUGE), "n_max must be >= 0, got ", id="StirlingTable"),
        pytest.param(lambda: run_primorial_scaling(HUGE), "need i_max >= 1, got ",
                     id="run_primorial_scaling"),
        pytest.param(lambda: run_random_scaling(repeats=HUGE), "need repeats >= 1, got ",
                     id="run_random_scaling"),
        pytest.param(lambda: StirlingTable(1).row(HUGE), "n=", id="StirlingTable.row"),
        pytest.param(lambda: asymptotic_ratio_report(HUGE), "n_max must be >= 2, got ",
                     id="asymptotic_ratio_report"),
    ],
)
def test_error_messages_clip_huge_values(call, words):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert message.startswith(words) and "bit integer" in message
    assert len(message) < 200
