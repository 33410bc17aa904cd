import sys
import time

import pytest

from cyclorbit import (
    NOT_IN_ORBIT,
    ArithmeticProgression,
    OrbitAnswer,
    Permutation,
    decide_orbit,
    parse_permutation,
    primorial_permutation,
)
from cyclorbit import oracle
from cyclorbit.oracle import (
    OrderBoundExceeded,
    brute_force_cycle_solutions,
    brute_force_orbit,
)


def test_cycle_solutions_by_rotation():
    assert brute_force_cycle_solutions("101010", "010101") == (1, 3, 5)
    assert brute_force_cycle_solutions("011", "101") == (1,)
    assert brute_force_cycle_solutions("00", "01") == ()
    assert brute_force_cycle_solutions("0", "0") == (0,)
    with pytest.raises(ValueError):
        brute_force_cycle_solutions("01", "0")


def test_brute_force_running_example():
    g2 = parse_permutation("(6,5,7,3,2,1)(4,8,9)", 9)
    answer = brute_force_orbit(g2, "010001111", "101110001")
    assert answer == OrbitAnswer(True, ArithmeticProgression(1, 6))


def test_brute_force_full_period():
    g = Permutation(2, [(1, 2)])
    assert brute_force_orbit(g, "01", "01") == OrbitAnswer(True, ArithmeticProgression(0, 2))
    assert brute_force_orbit(g, "01", "10") == OrbitAnswer(True, ArithmeticProgression(1, 2))
    assert brute_force_orbit(g, "00", "01") is NOT_IN_ORBIT


def test_brute_force_constant_configuration():
    # every power works when the cycle carries one repeated symbol
    g = Permutation(3, [(1, 2, 3)])
    assert brute_force_orbit(g, "aaa", "aaa") == OrbitAnswer(True, ArithmeticProgression(0, 1))


def test_brute_force_identity():
    g = Permutation(4)
    assert brute_force_orbit(g, "0101", "0101") == OrbitAnswer(True, ArithmeticProgression(0, 1))
    assert brute_force_orbit(g, "0101", "1010") is NOT_IN_ORBIT


def test_order_bound():
    g = primorial_permutation(10)  # order 6469693230
    v = "0" * g.n
    with pytest.raises(OrderBoundExceeded):
        brute_force_orbit(g, v, v)
    small = primorial_permutation(3)
    with pytest.raises(OrderBoundExceeded):
        brute_force_orbit(small, "0" * small.n, "0" * small.n, bound=29)
    assert brute_force_orbit(small, "0" * small.n, "0" * small.n, bound=30).in_orbit
    # an order with more digits than the lowest limit allows is named by its
    # bit length, so the refusal stays an OrderBoundExceeded
    g = primorial_permutation(242)
    v = "0" * g.n
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(OrderBoundExceeded) as exc:
            brute_force_orbit(g, v, v, bound=10)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(exc.value) == "order <2142-bit integer> exceeds the bound 10"


def test_work_bound(monkeypatch):
    # one 10^5-cycle has order 10^5, inside the order bound, yet its scan
    # takes n * order = 10^10 symbol-steps: minutes, so it is refused at once
    n = 10**5
    g = Permutation(n, [list(range(1, n + 1))])
    v = "0" * (n - 1) + "1"
    t0 = time.perf_counter()
    with pytest.raises(OrderBoundExceeded) as exc:
        brute_force_orbit(g, v, v)
    assert time.perf_counter() - t0 < 1
    assert str(exc.value) == (
        "100000 symbols times order 100000 exceeds the work bound 100000000 symbol-steps"
    )
    # the work bound is inclusive, as the order bound is
    g = Permutation(3, [(1, 2, 3)])
    monkeypatch.setattr(oracle, "WORK_BOUND", 9)
    assert brute_force_orbit(g, "001", "100") == OrbitAnswer(True, ArithmeticProgression(1, 3))
    monkeypatch.setattr(oracle, "WORK_BOUND", 8)
    with pytest.raises(OrderBoundExceeded):
        brute_force_orbit(g, "001", "100")


def test_length_mismatch():
    g = Permutation(3, [(1, 2)])
    with pytest.raises(ValueError):
        brute_force_orbit(g, "01", "010")


def test_brute_force_mixed_alphabet():
    g = parse_permutation("(1,2,3)(4,5)", 6)
    answer = brute_force_orbit(g, "abcde1", "bcaed1")
    assert answer.in_orbit
    # the oracle compares symbols as they are: a symbol outside the BMP and
    # lone surrogates are symbols like any other
    smile, hi, lo = "\U0001F600", "\ud800", "\udc00"
    for v, w, in_orbit in [
        ("a" + smile + "b" + hi + lo + "c", "b" + "a" + smile + lo + hi + "c", True),
        ("a" + smile + "b" + hi + lo + "c", smile + "ab" + lo + hi + "c", False),
        (hi + lo + hi + smile + smile + lo, hi + hi + lo + smile + smile + lo, True),
        (hi + lo + hi + smile + lo + lo, hi + lo + hi + lo + smile + hi, False),
    ]:
        answer = brute_force_orbit(g, v, w)
        assert answer.in_orbit is in_orbit, (v, w)
        assert answer == decide_orbit(g, v, w), (v, w)


def test_progression_check_raises(monkeypatch):
    g = Permutation(4, [(1, 2, 3, 4)])
    monkeypatch.setattr(oracle, "orbit_scan", lambda *args: [0, 1, 3])
    with pytest.raises(RuntimeError):
        brute_force_orbit(g, "0000", "0000")
