import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclorbit import (
    NOT_IN_ORBIT,
    ArithmeticProgression,
    CongruenceSystem,
    CostCounter,
    OrbitAnswer,
    Permutation,
    apply_power,
    decide_orbit,
    order,
    parse_permutation,
    primorial_permutation,
    reduce,
)
from cyclorbit import orbit
from cyclorbit.bench import _mark_cycle_starts
from cyclorbit.oracle import brute_force_orbit

from test_permutation import binary_config, permutations_st


def test_orbit_answer_validation():
    with pytest.raises(ValueError):
        OrbitAnswer(True)
    with pytest.raises(ValueError):
        OrbitAnswer(True, ArithmeticProgression(None, None))
    with pytest.raises(ValueError):
        OrbitAnswer(False, ArithmeticProgression(0, 1))
    yes = OrbitAnswer(True, ArithmeticProgression(1, 2))
    assert yes.witness == 1
    assert str(yes) == "YES r=1 solutions=1+2Z"
    assert NOT_IN_ORBIT.witness is None
    assert str(NOT_IN_ORBIT) == "NO"


def test_reduce_running_example():
    v, w = "010001111", "101110001"
    g1 = parse_permutation("(6,5,7,3,2,1)(4,8)", 9)
    g2 = parse_permutation("(6,5,7,3,2,1)(4,8,9)", 9)
    assert reduce(g1, v, w) == CongruenceSystem(((1, 2), (1, 2)))
    assert reduce(g2, v, w) == CongruenceSystem(((1, 2), (1, 3)))


def test_reduce_fixed_point_mismatch():
    g = Permutation(3, [(1, 2)])
    assert reduce(g, "001", "010") is None


def test_reduce_fixed_point_mismatch_non_bmp():
    # the fixed-point check compares code points: one non-BMP symbol is one position
    g = Permutation(3, [(1, 2)])
    assert reduce(g, "a\U0001F600a", "\U0001F600a\U0001F600") is None
    assert reduce(g, "a\U0001F600a", "\U0001F600aa") == CongruenceSystem(((1, 2),))
    # so is a lone surrogate
    assert reduce(g, "ab\ud800", "ba\ud800") == CongruenceSystem(((1, 2),))
    assert reduce(g, "ab\ud800", "ba\udc00") is None


def test_reduce_unmatchable_cycle():
    g = Permutation(2, [(1, 2)])
    assert reduce(g, "00", "01") is None


def test_reduce_length_check():
    g = Permutation(3, [(1, 2)])
    with pytest.raises(ValueError):
        reduce(g, "01", "010")


def test_decide_running_example():
    v, w = "010001111", "101110001"
    g1 = parse_permutation("(6,5,7,3,2,1)(4,8)", 9)
    g2 = parse_permutation("(6,5,7,3,2,1)(4,8,9)", 9)
    a1 = decide_orbit(g1, v, w)
    a2 = decide_orbit(g2, v, w)
    assert a1 == OrbitAnswer(True, ArithmeticProgression(1, 2))
    assert a2 == OrbitAnswer(True, ArithmeticProgression(1, 6))
    assert a1.witness == a2.witness == 1


def test_decide_singleton_rotation():
    g = Permutation(4, [(1, 2, 3, 4)])
    answer = decide_orbit(g, "1100", "0011")
    assert answer == OrbitAnswer(True, ArithmeticProgression(2, 4))


def test_decide_identity_permutation():
    g = Permutation(3)
    assert decide_orbit(g, "010", "010") == OrbitAnswer(True, ArithmeticProgression(0, 1))
    assert decide_orbit(g, "010", "011") is NOT_IN_ORBIT


def run_optimized(code):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


def test_witness_check_survives_optimize():
    # under python -O an assert would vanish; the witness check must not
    code = (
        "import cyclorbit.orbit as o\n"
        "o.apply_power = lambda g, r, v: '0' * len(v)\n"
        "try:\n"
        "    o.decide_orbit(o.Permutation(2, [(1, 2)]), '01', '10')\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('decide_orbit returned with a wrong witness')\n"
    )
    out = run_optimized(code)
    assert out.returncode == 0, out.stderr


def test_progression_check_survives_optimize():
    # (0, 1, 3) on a 4-cycle is no progression; under python -O reduce must still refuse it
    code = (
        "import cyclorbit.orbit as o\n"
        "o.rotation_exponents = lambda vc, wc, counter=None: (0, 1, 3)\n"
        "try:\n"
        "    o.reduce(o.Permutation(4, [(1, 2, 3, 4)]), '0000', '0000')\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('reduce accepted uneven rotations')\n"
    )
    out = run_optimized(code)
    assert out.returncode == 0, out.stderr


def test_progression_check_reads_every_exponent(monkeypatch):
    # (0, 2, 5) is as long as range(0, 6, 2), so a check of lengths alone would pass it
    monkeypatch.setattr(orbit, "rotation_exponents", lambda vc, wc, counter=None: (0, 2, 5))
    with pytest.raises(RuntimeError, match="not a progression"):
        reduce(Permutation(6, [range(1, 7)]), "0" * 6, "0" * 6)


@pytest.mark.parametrize("exponents", [(3, 5), (-1, 1, 3, 5)])
def test_progression_check_starts_below_the_gap(monkeypatch, exponents):
    # both are range(a, 6, 2) with b | 6, but a residue outside [0, 2) is no
    # progression the matcher can return, so reduce must refuse it itself
    monkeypatch.setattr(orbit, "rotation_exponents", lambda vc, wc, counter=None: exponents)
    with pytest.raises(RuntimeError, match="not a progression"):
        reduce(Permutation(6, [range(1, 7)]), "0" * 6, "0" * 6)


def test_solvable_per_cycle_but_empty_system():
    # each cycle alone admits rotations, yet no common exponent exists:
    # rotating only the 2-cycle forces x odd while the 4-cycle forces x = 0 mod 4
    g = Permutation(6, [(1, 2), (3, 4, 5, 6)])
    v = "010011"
    w = apply_power(g, 1, v)[:2] + v[2:]
    assert reduce(g, v, w) == CongruenceSystem(((1, 2), (0, 4)))
    assert decide_orbit(g, v, w) is NOT_IN_ORBIT
    assert brute_force_orbit(g, v, w) is NOT_IN_ORBIT


@settings(max_examples=400)
@given(st.data())
def test_decide_agrees_with_brute_force(data):
    g = data.draw(permutations_st)
    v = data.draw(binary_config(g.n))
    if data.draw(st.booleans()):
        w = apply_power(g, data.draw(st.integers(0, 2 * order(g))), v)
    else:
        w = data.draw(binary_config(g.n))
    assert decide_orbit(g, v, w) == brute_force_orbit(g, v, w)


@settings(max_examples=200)
@given(st.data())
def test_emitted_moduli_divide_cycle_lengths(data):
    g = data.draw(permutations_st)
    v = data.draw(binary_config(g.n))
    w = apply_power(g, data.draw(st.integers(0, 2 * order(g))), v)
    system = reduce(g, v, w)
    assert system is not None
    assert len(system) == len(g.cycles)
    for (a_i, b_i), c in zip(system, g.cycles):
        assert len(c) % b_i == 0
        assert 0 <= a_i < b_i


@settings(max_examples=200)
@given(st.data())
def test_solution_period_divides_order(data):
    g = data.draw(permutations_st)
    v = data.draw(binary_config(g.n))
    w = apply_power(g, data.draw(st.integers(0, 2 * order(g))), v)
    answer = decide_orbit(g, v, w)
    assert answer.in_orbit
    assert order(g) % answer.solutions.period == 0
    assert apply_power(g, answer.witness, v) == w


def test_counted_cost_grows_linearly():
    # word counts on the prime-cycle family, doubling the degree at most
    # doubles-and-a-half the counted work
    costs = {}
    for i in (4, 6, 8, 11, 14, 17):
        g = primorial_permutation(i)
        v = _mark_cycle_starts(g)
        w = apply_power(g, 123456789 % order(g), v)
        counter = CostCounter()
        assert decide_orbit(g, v, w, counter).in_orbit
        costs[g.n] = counter.word_ops
    sizes = sorted(costs)
    for small, big in zip(sizes, sizes[1:]):
        growth = costs[big] / costs[small]
        assert growth <= 2.5 * big / small
