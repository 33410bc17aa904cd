import math
from fractions import Fraction

import pytest

from cyclorbit import (
    EMPTY,
    fit_polylog_exponent,
    harmonic_values,
    measure_average_cost,
    verify_moment_identities,
)
from cyclorbit.analysis import StirlingTable, asymptotic_ratio_report, cycle_count_moments


def test_average_cost_check_raises(monkeypatch):
    monkeypatch.setattr("cyclorbit.analysis.solve_system", lambda *args: EMPTY)
    with pytest.raises(RuntimeError, match="planted"):
        measure_average_cost(5, 2, 0)


def test_stirling_small_values():
    t = StirlingTable(5)
    assert t.row(3) == [0, 2, 3, 1]
    assert t.value(3, 1) == 2
    assert t.value(4, 2) == 11
    assert t.value(5, 5) == 1
    assert t.value(4, 0) == 0
    assert t.value(4, 7) == 0
    with pytest.raises(ValueError):
        t.value(6, 1)


def test_stirling_rows_sum_to_factorials():
    t = StirlingTable(30)
    for n in range(31):
        assert sum(t.row(n)) == math.factorial(n)


def test_harmonic_values():
    h = harmonic_values(4)
    assert h.h1[3] == Fraction(11, 6)
    assert h.h2[2] == Fraction(5, 4)
    assert h.h3[2] == Fraction(9, 8)
    assert h.h1[0] == 0


def test_third_moment_small_case():
    # n = 2: the identity has 2 cycles, the transposition 1, so
    # E[K^3] = (8 + 1) / 2
    t = StirlingTable(2)
    assert cycle_count_moments(2, t)[2] == Fraction(9, 2)


def test_mean_cycles_is_harmonic_small():
    t = StirlingTable(6)
    h = harmonic_values(6)
    for n in range(1, 7):
        assert cycle_count_moments(n, t)[0] == h.h1[n]


def test_identities_hold_exactly():
    report = verify_moment_identities(60)
    assert report.ok
    assert report.checked == 5 * 60


def test_identity_report_shape():
    report = verify_moment_identities(3)
    assert report.n_max == 3
    assert report.failures == []
    with pytest.raises(ValueError):
        verify_moment_identities(0)


def test_asymptotic_ratio_drifts_down():
    rows = dict(asymptotic_ratio_report(120))
    assert rows[120] > 1.0
    assert rows[120] < rows[20] < rows[5]


def test_fit_polylog_exponent_recovers_slope():
    series = [(n, 7.0 * math.log(n) ** 3) for n in (10, 100, 1000, 10000)]
    assert abs(fit_polylog_exponent(series) - 3.0) < 1e-9
    with pytest.raises(ValueError):
        fit_polylog_exponent([(10, 1.0)])


def test_measure_average_cost_reproducible():
    a = measure_average_cost(40, 50, rng_seed=7)
    b = measure_average_cost(40, 50, rng_seed=7)
    assert a.rows == b.rows
    c = measure_average_cost(40, 50, rng_seed=8)
    assert c.rows != a.rows


def test_measure_average_cost_tracks_harmonic():
    stats = measure_average_cost(50, 400, rng_seed=3)
    h50 = float(harmonic_values(50).h1[50])
    assert abs(stats.mean_cycles - h50) <= 5 * stats.se_cycles
    assert stats.max_word_ops >= stats.mean_word_ops > 0


def test_measure_average_cost_csv():
    stats = measure_average_cost(10, 5, rng_seed=1)
    rows = list(stats.csv_rows())
    assert rows[0] == ("n", "trial", "k_cycles", "word_ops", "max_bits")
    assert len(rows) == 6
    assert rows[1][0] == 10
    with pytest.raises(ValueError):
        measure_average_cost(0, 5, rng_seed=1)
