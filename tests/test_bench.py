import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cyclorbit
from cyclorbit import (
    EMPTY,
    Permutation,
    apply,
    instance_size_bits,
    measure_average_cost,
    ratio_band,
    run_primes_then_pairs_scaling,
    run_primorial_scaling,
    run_random_scaling,
)
from cyclorbit.bench import ScalingReport, ScalingRow, _random_orbit_instance


def test_instance_size_bits():
    g = Permutation(2, [(1, 2)])
    # indices 1 and 2 cost 1 + 2 bits, both configurations cost 1 bit/symbol
    assert instance_size_bits(g, "01", "10") == 3 + 4
    assert instance_size_bits(g, "01", "10", alphabet_size=4) == 3 + 8


def test_scaling_row_check_raises(monkeypatch):
    monkeypatch.setattr("cyclorbit.orbit.solve_system", lambda *args: EMPTY)
    with pytest.raises(RuntimeError, match="planted"):
        run_primorial_scaling(2)


def test_primorial_scaling_rows():
    report = run_primorial_scaling(6, rng_seed=11, repeats=2)
    assert [r.label for r in report.rows] == [f"i={i}" for i in range(1, 7)]
    sizes = [r.input_size_bits for r in report.rows]
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
    orders = [r.order_bits for r in report.rows]
    assert orders == sorted(orders)
    for r in report.rows:
        # recovered witness is minimal, r_star lies on the progression
        assert r.witness <= r.r_star
        assert (r.r_star - r.witness) % r.period == 0
        assert r.word_ops <= 32 * r.input_size_bits


def test_primorial_scaling_validation():
    with pytest.raises(ValueError):
        run_primorial_scaling(0)
    with pytest.raises(ValueError):
        run_primorial_scaling(3, repeats=0)
    with pytest.raises(ValueError):
        run_primes_then_pairs_scaling(0)
    with pytest.raises(ValueError):
        run_primes_then_pairs_scaling(3, ms=(-1,))
    with pytest.raises(ValueError):
        run_primes_then_pairs_scaling(3, repeats=0)


def test_primes_then_pairs_reads_every_m_first(monkeypatch):
    drawn = []
    monkeypatch.setattr("cyclorbit.bench._measure_planted", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=">= 0, got -1"):
        run_primes_then_pairs_scaling(1, ms=(0, -1))
    assert drawn == []


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        pytest.param(lambda: run_random_scaling(sizes=(2 * 10**5, 0)), ValueError,
                     "size must be >= 1, got 0", id="run_random_scaling-size-0"),
        pytest.param(lambda: run_random_scaling(sizes=(2 * 10**5, "x")), TypeError,
                     "'str' object cannot be interpreted as an integer",
                     id="run_random_scaling-size-str"),
        pytest.param(lambda: ratio_band(ScalingReport("random", 0, 1, [])), ValueError,
                     "no rows in the requested window", id="ratio_band-no-rows"),
        pytest.param(lambda: run_primorial_scaling(2, rng_seed=1.5), TypeError,
                     "'float' object cannot be interpreted as an integer",
                     id="run_primorial_scaling-seed-float"),
        pytest.param(lambda: run_primes_then_pairs_scaling(1, ms=(0,), rng_seed="1"), TypeError,
                     "'str' object cannot be interpreted as an integer",
                     id="run_primes_then_pairs_scaling-seed-str"),
        pytest.param(lambda: run_random_scaling((10,), rng_seed=[1]), TypeError,
                     "'list' object cannot be interpreted as an integer",
                     id="run_random_scaling-seed-list"),
        pytest.param(lambda: measure_average_cost(3, 1, "x"), TypeError,
                     "'str' object cannot be interpreted as an integer",
                     id="measure_average_cost-seed-str"),
    ],
)
def test_measurements_read_their_input_first(monkeypatch, call, error, message):
    drawn = []
    monkeypatch.setattr("cyclorbit.bench._random_orbit_instance", lambda *args: drawn.append(args))
    with pytest.raises(error, match=re.escape(message)):
        call()
    assert drawn == []


def test_fold_cost_does_not_depend_on_cycle_order():
    # 200 prime cycles, then m 2-cycles: a fold in listed order carries a
    # modulus as wide as the group order through every 2-cycle, and its
    # ratio reads 0.345, 0.935, 2.656 over m = 0, 10^4, 10^5
    report = run_primes_then_pairs_scaling(200, ms=(0, 10**4, 10**5), rng_seed=3)
    assert [r.degree for r in report.rows] == [111_587, 131_587, 311_587]
    lo, hi = ratio_band(report)
    assert hi <= 3 * lo, [r.word_ops / r.input_size_bits for r in report.rows]


def test_random_scaling_smoke():
    report = run_random_scaling(sizes=(64, 128, 256), rng_seed=5, repeats=1)
    assert [r.degree for r in report.rows] == [64, 128, 256]
    for r in report.rows:
        assert r.word_ops > 0 and r.max_bits > 0


def test_random_permutations_are_uniform():
    # 24,000 draws of degree 4, each permutation identified by where it sends
    # the symbols of ABCD: every one of the 24 must come 1000 +- 150 times,
    # about 4.8 standard deviations of a uniform draw
    counts = Counter(
        apply(_random_orbit_instance(4, 0, key)[0], "ABCD") for key in range(24_000)
    )
    assert len(counts) == 24
    assert all(850 <= c <= 1150 for c in counts.values()), sorted(counts.values())


def test_ratio_band_window():
    report = run_primorial_scaling(8, rng_seed=2, repeats=1)
    lo, hi = ratio_band(report, window=10.0)
    assert 0 < lo <= hi
    lo_all, hi_all = ratio_band(report, window=10**9)
    assert lo_all <= lo and hi_all >= hi


def test_csv_rows_header():
    report = run_primorial_scaling(2, rng_seed=0, repeats=1)
    rows = list(report.csv_rows())
    assert len(rows) == 3
    row = ScalingRow("i=1", 2, 7, 1.23456789e-4, 3, 2, 1, 1, 0, 2)
    assert list(ScalingReport("primorial", 0, 1, [row]).csv_rows()) == [
        ("label", "degree", "input_size_bits", "wall_time", "word_ops",
         "max_bits", "order_bits", "r_star", "witness", "period"),
        ("i=1", 2, 7, "0.000123457", 3, 2, 1, 1, 0, 2),
    ]


def test_runs_on_the_standard_library_alone():
    code = (
        "import sys\n"
        "from cyclorbit import Permutation, decide_orbit, run_random_scaling\n"
        "print(decide_orbit(Permutation(2, [(1, 2)]), '01', '10'))\n"
        "print(len(run_random_scaling(sizes=(16, 32), repeats=1).rows))\n"
        "print('numpy' in sys.modules)\n"
    )
    src = Path(cyclorbit.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["YES r=1 solutions=1+2Z", "2", "False", ""]
