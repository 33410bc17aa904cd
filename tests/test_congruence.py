import math
from decimal import Decimal

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
    first_primes,
    measure_average_cost,
    naive_intersection,
    primorial_permutation,
    progression,
    reduce,
    rotate_right,
    run_primes_then_pairs_scaling,
    run_primorial_scaling,
    run_random_scaling,
    solve_system,
    verify_moment_identities,
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


def test_system_equations_must_be_ints():
    # operator.index: a float, a string or a Decimal is refused, never rounded
    for eqs in [((1, 3.0),), ((1.5, 3),), (("1", 3),), ((1, Decimal(3)),)]:
        with pytest.raises(TypeError):
            CongruenceSystem(eqs)
    system = CongruenceSystem(((True, 2),))
    assert system.equations == ((1, 2),) and type(system.equations[0][0]) is int


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


def test_solve_system_known_cases():
    assert solve_system(CongruenceSystem(((1, 2), (1, 3)))) == ArithmeticProgression(1, 6)
    assert solve_system(CongruenceSystem(((2, 4), (0, 6)))) == ArithmeticProgression(6, 12)
    assert solve_system(CongruenceSystem(())) == ArithmeticProgression(0, 1)
    # the canonical unsolvable system
    assert solve_system(CongruenceSystem(((0, 2), (1, 2)))) is EMPTY
    assert solve_system(CongruenceSystem(((1, 4), (3, 8)))) is EMPTY
    assert solve_system(CongruenceSystem(((1, 2), (1, 2)))) == ArithmeticProgression(1, 2)
    # word_ops and max_bits are pinned, so any change to the fold's charges shows.
    # Each count is one dedupe charge per equation, D * D.bit_length() sort
    # charges for D distinct moduli, and the steps over those in ascending
    # order: 11, 13 or 15 for a step whose gcd takes one, two or three rounds
    # on one-word operands.
    wide_moduli = [2**89 - 1, 2**107 - 1, 2**127 - 1]
    for eqs, answer, word_ops, max_bits in [
        # 2 + 4, then 3 and 6: 13 + 13 (b divides b_i)
        (((1, 6), (1, 3)), ArithmeticProgression(1, 6), 32, 3),
        # 2 + 4, then 3: 13, and 6 stops at the EMPTY test after 4 gcd and 4 step charges
        (((1, 6), (2, 3)), EMPTY, 27, 3),
        # 2 + 4, then 4: 13, and 8 stops as 6 does above
        (((1, 4), (3, 8)), EMPTY, 27, 4),
        # 3 + 6, then 1: 11, 4: 13, 9: 15 (three gcd rounds)
        (((5, 9), (0, 1), (2, 4)), ArithmeticProgression(14, 36), 48, 6),
        # 6 + 12 over two-word moduli, then 165 for the three steps
        (tuple((1, m) for m in wide_moduli),
         ArithmeticProgression(1, math.prod(wide_moduli)), 183, 323),
        # a repeated modulus with another residue is refuted by the dedupe: 2
        (((1, 6), (2, 6)), EMPTY, 2, 3),
    ]:
        counter = CostCounter()
        assert solve_system(CongruenceSystem(eqs), counter) == answer, eqs
        assert (counter.word_ops, counter.max_bits) == (word_ops, max_bits), eqs


@given(small_systems)
def test_counted_fold_matches_uncounted(sys_):
    assert solve_system(sys_, CostCounter()) == solve_system(sys_)


@given(st.data())
def test_fold_does_not_depend_on_equation_order(data):
    sys_ = data.draw(small_systems)
    shuffled = CongruenceSystem(tuple(data.draw(st.permutations(sys_.equations))))
    counter, shuffled_counter = CostCounter(), CostCounter()
    assert solve_system(shuffled, shuffled_counter) == solve_system(sys_, counter)
    # the dedupe may stop at another equation only when a modulus has two residues
    if len({b: a for a, b in sys_}) == len(set(sys_)):
        assert (shuffled_counter.word_ops, shuffled_counter.max_bits) == (
            counter.word_ops, counter.max_bits)


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
    # 3 dedupe and 6 sort charges, then the 43 of the fold, which charges only
    # the cofactor it reads
    assert c_small.word_ops == 52


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
        pytest.param(lambda: naive_intersection(CongruenceSystem(((0, -HUGE),))), "lcm ",
                     id="naive_intersection"),
        pytest.param(lambda: reduce(Permutation(-HUGE), "ab", "ab"),
                     "configuration length 2 does not match degree ", id="reduce"),
        pytest.param(lambda: brute_force_orbit(Permutation(-HUGE), "ab", "ab"),
                     "configuration lengths 2, 2 do not match degree ", id="brute_force_orbit"),
        pytest.param(lambda: primorial_permutation(HUGE), "i must be >= 1, got ",
                     id="primorial_permutation"),
        pytest.param(lambda: StirlingTable(HUGE), "n_max must be >= 0, got ", id="StirlingTable"),
        pytest.param(lambda: run_primorial_scaling(HUGE), "i_max must be >= 1, got ",
                     id="run_primorial_scaling"),
        pytest.param(lambda: run_primes_then_pairs_scaling(1, ms=(HUGE,)), "m must be >= 0, got ",
                     id="run_primes_then_pairs_scaling"),
        pytest.param(lambda: run_random_scaling(repeats=HUGE), "repeats must be >= 1, got ",
                     id="run_random_scaling"),
        pytest.param(lambda: StirlingTable(1).row(HUGE), "n=", id="StirlingTable.row"),
        pytest.param(lambda: asymptotic_ratio_report(HUGE), "n_max must be >= 2, got ",
                     id="asymptotic_ratio_report"),
        pytest.param(lambda: first_primes(HUGE), "count must be >= 0, got ", id="first_primes"),
        pytest.param(lambda: verify_moment_identities(HUGE), "n_max must be >= 1, got ",
                     id="verify_moment_identities"),
        pytest.param(lambda: measure_average_cost(HUGE, 1, 0), "n must be >= 1, got ",
                     id="measure_average_cost-n"),
        pytest.param(lambda: measure_average_cost(1, HUGE, 0), "trials must be >= 1, got ",
                     id="measure_average_cost-trials"),
    ],
)
def test_error_messages_clip_huge_values(call, words):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert message.startswith(words) and "bit integer" in message
    assert len(message) < 200


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ArithmeticProgression(0.5, 2), id="ArithmeticProgression"),
        pytest.param(lambda: progression(1.0, 3.0), id="progression"),
        pytest.param(lambda: first_primes(2.5), id="first_primes"),
        pytest.param(lambda: primorial_permutation(2.5), id="primorial_permutation"),
        # 3.0 is a whole turn of the 3-cycle, which skips the slice that
        # would reject any other float shift
        pytest.param(lambda: apply_power(Permutation(3, [(1, 2, 3)]), 3.0, "abc"),
                     id="apply_power"),
        pytest.param(lambda: rotate_right("abc", 3.0), id="rotate_right"),
    ],
)
def test_float_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()
