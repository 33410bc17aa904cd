import math

import pytest
from hypothesis import given, settings, strategies as st

from cyclorbit import (
    CongruenceSystem,
    CrtStats,
    PrimePowerEquation,
    decide_solvable,
    factorize,
    solve_system,
    split_equation,
)
from cyclorbit import crt_solver

from test_congruence import small_systems


def test_factorize_known():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(1024) == [(2, 10)]
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(1, 10**6))
def test_factorize_reconstructs(b):
    factors = factorize(b)
    assert math.prod(p**e for p, e in factors) == b
    for p, e in factors:
        assert e >= 1
        assert all(p % d for d in range(2, int(math.isqrt(p)) + 1))
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_split_equation_known():
    assert split_equation(7, 12) == [
        PrimePowerEquation(2, 2, 3),
        PrimePowerEquation(3, 1, 1),
    ]
    assert split_equation(5, 6) == [
        PrimePowerEquation(2, 1, 1),
        PrimePowerEquation(3, 1, 2),
    ]
    assert split_equation(0, 1) == []
    with pytest.raises(ValueError):
        split_equation(3, 2)


@given(st.integers(2, 5000).flatmap(lambda b: st.tuples(st.integers(0, b - 1), st.just(b))))
def test_split_is_equivalent_to_original(eq):
    a, b = eq
    atoms = split_equation(a, b)
    # same solution set over one full period
    for x in range(b):
        original = (x - a) % b == 0
        split = all((x - at.residue) % at.modulus == 0 for at in atoms)
        assert original == split


def test_decide_solvable_known():
    assert decide_solvable(CongruenceSystem(((1, 2), (1, 3))))
    assert decide_solvable(CongruenceSystem(((2, 4), (0, 6))))
    assert not decide_solvable(CongruenceSystem(((1, 4), (3, 8))))
    assert decide_solvable(CongruenceSystem(((3, 4), (7, 8))))
    assert not decide_solvable(CongruenceSystem(((0, 2), (1, 2))))
    assert decide_solvable(CongruenceSystem(()))


@settings(max_examples=500)
@given(small_systems)
def test_decide_solvable_matches_solver(sys_):
    assert decide_solvable(sys_) == (not solve_system(sys_).is_empty)


@settings(max_examples=200)
@given(
    st.lists(
        st.integers(1, 10**4).flatmap(
            lambda b: st.tuples(st.integers(0, b - 1), st.just(b))
        ),
        min_size=0,
        max_size=5,
    )
)
def test_decide_solvable_matches_solver_wide_moduli(eqs):
    sys_ = CongruenceSystem(tuple(eqs))
    assert decide_solvable(sys_) == (not solve_system(sys_).is_empty)


def test_stats_p_max_e_max():
    stats = CrtStats()
    decide_solvable(CongruenceSystem(((7, 360), (1, 2))), stats)
    assert stats.p_max == 5
    assert stats.e_max == 3
    assert stats.bit_ops > 0
    assert len(stats.per_atom) == 4  # 2^3, 3^2, 5 and the lone 2


def test_repeated_weak_checks_stay_cheap():
    # one huge stored constraint, then a stream of tiny ones: each tiny
    # check must be answered from the level table, never by reducing the
    # stored residue again
    big_mod = 2**500
    residue = big_mod - 12345
    eqs = [(residue, big_mod)] + [(residue % 2, 2)] * 50
    stats = CrtStats()
    assert decide_solvable(CongruenceSystem(tuple(eqs)), stats)
    small_costs = [cost for atom, cost in stats.per_atom if atom.exponent == 1]
    assert len(small_costs) == 50
    assert max(small_costs) <= 16, small_costs
    # contrast: even one reduction of the stored residue would cost ~1000
    assert stats.per_atom[0][0] == PrimePowerEquation(2, 500, residue)


def test_conflict_found_at_lower_level():
    # stored 11 mod 16, incoming 1 mod 4 disagrees (11 mod 4 == 3)
    assert not decide_solvable(CongruenceSystem(((11, 16), (1, 4))))
    assert decide_solvable(CongruenceSystem(((11, 16), (3, 4))))


def test_strengthening_updates_tables():
    # weaker first, stronger second, then a query at the old level
    assert decide_solvable(CongruenceSystem(((3, 4), (11, 16), (3, 4))))
    assert not decide_solvable(CongruenceSystem(((3, 4), (11, 16), (1, 4))))
    assert not decide_solvable(CongruenceSystem(((1, 4), (11, 16))))


smooth_moduli = st.builds(lambda i, j: 2**i * 3**j, st.integers(0, 10), st.integers(0, 10))


@settings(max_examples=300)
@given(
    st.integers(0, 6**10 - 1),
    st.lists(
        st.tuples(smooth_moduli, st.none() | st.integers(0, 6**10 - 1)),
        min_size=1,
        max_size=8,
    ),
)
def test_decide_solvable_matches_solver_smooth_moduli(x, picks):
    # residues mostly follow one hidden x, so strengthen-then-weaken chains
    # on 2 and 3 run long before a stray residue (if any) ends them
    sys_ = CongruenceSystem(tuple(((x if y is None else y) % b, b) for b, y in picks))
    assert decide_solvable(sys_) == (not solve_system(sys_).is_empty)


def test_refutation_stops_before_later_moduli(monkeypatch):
    # 1 mod 2 against 0 mod 2 refutes the system before the 61-bit prime,
    # which trial division would spend minutes on, is factored
    factorize = crt_solver.factorize

    def small_only(b, stats=None):
        if b > 2**40:
            pytest.fail(f"factorize called on {b}")
        return factorize(b, stats)

    monkeypatch.setattr(crt_solver, "factorize", small_only)
    assert not decide_solvable(CongruenceSystem(((1, 2), (0, 2), (0, 2**61 - 1))))
