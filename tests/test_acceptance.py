"""End-to-end acceptance checks, one test per criterion.

Run with pytest -v: each criterion shows up as its own pass/fail line.
The corpora are seeded, so every run exercises identical instances.
"""

import itertools
import math
import random
import time

from cyclorbit import (
    ArithmeticProgression,
    CongruenceSystem,
    CostCounter,
    OrbitAnswer,
    Permutation,
    apply_power,
    decide_orbit,
    decide_solvable,
    fit_polylog_exponent,
    harmonic_values,
    instance_size_bits,
    measure_average_cost,
    naive_intersection,
    order,
    parse_permutation,
    primorial_permutation,
    project,
    ratio_band,
    reduce,
    rotate_right,
    rotation_exponents,
    run_primorial_scaling,
    run_random_scaling,
    solve_system,
    verify_moment_identities,
)
from cyclorbit.permutation import cycles_of_mapping
from cyclorbit.oracle import brute_force_orbit

V_EXAMPLE = "010001111"
W_EXAMPLE = "101110001"

_CACHE = {}


def _permutation_from_mapping(n, mapping):
    return Permutation(n, [[j + 1 for j in c] for c in cycles_of_mapping(mapping)])


def _all_permutations(n):
    return [
        _permutation_from_mapping(n, list(p))
        for p in itertools.permutations(range(n))
    ]


def _check_instance(g, v, w, systems):
    fast = decide_orbit(g, v, w)
    slow = brute_force_orbit(g, v, w)
    assert fast == slow, (g, v, w, fast, slow)
    system = reduce(g, v, w)
    if system is not None:
        systems.append(system)


def _criterion2_corpus():
    """Oracle-equivalence sweep; cached so criterion 3 can reuse the systems."""
    if "crit2" in _CACHE:
        return _CACHE["crit2"]
    rng = random.Random(2026_08_02)
    systems = []
    instances = 0
    t0 = time.perf_counter()
    cap = 10**5
    for n in range(1, 7):
        perms = _all_permutations(n)
        total = len(perms) * 4**n
        if total <= cap:
            for g in perms:
                for vi in range(2**n):
                    v = format(vi, f"0{n}b")
                    for wi in range(2**n):
                        _check_instance(g, v, format(wi, f"0{n}b"), systems)
                        instances += 1
        else:
            for _ in range(cap):
                g = perms[rng.randrange(len(perms))]
                v = format(rng.getrandbits(n), f"0{n}b")
                w = format(rng.getrandbits(n), f"0{n}b")
                _check_instance(g, v, w, systems)
                instances += 1
    for _ in range(10**4):
        n = rng.randint(1, 10)
        alphabet = "012"[: rng.randint(1, 3)]
        mapping = list(range(n))
        rng.shuffle(mapping)
        g = _permutation_from_mapping(n, mapping)
        v = "".join(rng.choice(alphabet) for _ in range(n))
        if rng.random() < 0.5:
            w = apply_power(g, rng.randrange(order(g)), v)
        else:
            w = "".join(rng.choice(alphabet) for _ in range(n))
        _check_instance(g, v, w, systems)
        instances += 1
    elapsed = time.perf_counter() - t0
    _CACHE["crit2"] = (elapsed, instances, systems)
    return _CACHE["crit2"]


def test_criterion_1_running_example():
    g1 = parse_permutation("(6,5,7,3,2,1)(4,8)", 9)
    g2 = parse_permutation("(6,5,7,3,2,1)(4,8,9)", 9)
    c = g1.cycles[0]
    assert project(V_EXAMPLE, c) == "101010"
    assert project(W_EXAMPLE, c) == "010101"
    assert rotation_exponents("101010", "010101") == (1, 3, 5)
    assert reduce(g1, V_EXAMPLE, W_EXAMPLE) == CongruenceSystem(((1, 2), (1, 2)))
    assert reduce(g2, V_EXAMPLE, W_EXAMPLE) == CongruenceSystem(((1, 2), (1, 3)))
    assert solve_system(CongruenceSystem(((1, 2), (1, 2)))) == ArithmeticProgression(1, 2)
    assert solve_system(CongruenceSystem(((1, 2), (1, 3)))) == ArithmeticProgression(1, 6)
    assert decide_solvable(CongruenceSystem(((1, 2), (1, 2))))
    assert decide_solvable(CongruenceSystem(((1, 2), (1, 3))))
    a1 = decide_orbit(g1, V_EXAMPLE, W_EXAMPLE)
    a2 = decide_orbit(g2, V_EXAMPLE, W_EXAMPLE)
    assert a1 == OrbitAnswer(True, ArithmeticProgression(1, 2))
    assert a2 == OrbitAnswer(True, ArithmeticProgression(1, 6))
    # speed: both decisions well under a millisecond
    best = min(
        _timed(lambda: (decide_orbit(g1, V_EXAMPLE, W_EXAMPLE),
                        decide_orbit(g2, V_EXAMPLE, W_EXAMPLE)))
        for _ in range(5)
    )
    assert best < 1e-3, f"running example took {best * 1e3:.3f} ms"
    print(f"PASS criterion 1: running example exact, {best * 1e6:.0f} us per decision pair")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_oracle_equivalence():
    elapsed, instances, systems = _criterion2_corpus()
    assert instances == 4 + 32 + 384 + 6144 + 10**5 + 10**5 + 10**4
    assert elapsed < 60, f"corpus took {elapsed:.1f} s"
    print(
        f"PASS criterion 2: {instances} instances agree with the brute-force "
        f"oracle in {elapsed:.1f} s ({len(systems)} systems collected)"
    )


def test_criterion_3_solver_equivalence():
    rng = random.Random(2026_08_03)
    t0 = time.perf_counter()
    checked = 0
    while checked < 10**4:
        m = rng.randint(1, 6)
        moduli = [rng.randint(1, 50) for _ in range(m)]
        # the scan oracle walks [0, lcm), so keep that walk affordable
        if math.lcm(*moduli) > 3000:
            continue
        system = CongruenceSystem(
            tuple((rng.randrange(b), b) for b in moduli)
        )
        fast = solve_system(system)
        slow = naive_intersection(system)
        assert fast == slow, (system, fast, slow)
        assert decide_solvable(system) == (not fast.is_empty), system
        checked += 1
    _, _, emitted = _criterion2_corpus()
    for system in emitted:
        assert decide_solvable(system) == (not solve_system(system).is_empty), system
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"solver equivalence took {elapsed:.1f} s"
    print(
        f"PASS criterion 3: {checked} random systems match the scan oracle and "
        f"{len(emitted)} reduction systems agree on solvability, {elapsed:.1f} s"
    )


def test_criterion_4_progression_structure():
    rng = random.Random(2026_08_04)
    ap_checks = 0
    for k in list(range(1, 65)) + [100, 150, 200]:
        for _ in range(10):
            vc = "".join(rng.choice("01") for _ in range(k))
            if rng.random() < 0.7:
                wc = rotate_right(vc, rng.randrange(k))
            else:
                wc = "".join(rng.choice("01") for _ in range(k))
            exps = rotation_exponents(vc, wc)
            if not exps:
                continue
            gap = exps[1] - exps[0] if len(exps) > 1 else k
            assert k % gap == 0, (vc, wc, exps)
            assert exps == tuple(range(exps[0], k, gap)), (vc, wc, exps)
            ap_checks += 1
    modulus_checks = 0
    for _ in range(300):
        n = rng.randint(2, 40)
        mapping = list(range(n))
        rng.shuffle(mapping)
        g = _permutation_from_mapping(n, mapping)
        v = "".join(rng.choice("01") for _ in range(n))
        w = apply_power(g, rng.randrange(2 * order(g) + 1), v)
        system = reduce(g, v, w)
        assert system is not None
        for (a_i, b_i), c in zip(system, g.cycles):
            assert len(c) % b_i == 0
            assert 0 <= a_i < b_i
            modulus_checks += 1
        answer = decide_orbit(g, v, w)
        assert answer.in_orbit
        assert order(g) % answer.solutions.period == 0
    assert ap_checks > 400
    print(
        f"PASS criterion 4: {ap_checks} exponent sets are arithmetic progressions, "
        f"{modulus_checks} emitted moduli divide their cycle lengths"
    )


def test_criterion_5_exact_identities():
    t0 = time.perf_counter()
    report = verify_moment_identities(200)
    elapsed = time.perf_counter() - t0
    assert report.ok, report.failures[:5]
    assert report.checked == 5 * 200
    assert elapsed < 10, f"identities took {elapsed:.1f} s"
    print(f"PASS criterion 5: {report.checked} identity checks exact up to n=200, {elapsed:.1f} s")


def test_criterion_6_mean_cycles_tracks_harmonic():
    t0 = time.perf_counter()
    harm = harmonic_values(1000)
    lines = []
    for n in (10, 100, 1000):
        stats = measure_average_cost(n, 10**4, rng_seed=2026)
        target = float(harm.h1[n])
        gap = abs(stats.mean_cycles - target)
        assert gap <= 3 * stats.se_cycles, (
            f"n={n}: mean {stats.mean_cycles:.4f} vs H_n {target:.4f}, "
            f"gap {gap:.4f} > 3 se {3 * stats.se_cycles:.4f}"
        )
        lines.append(f"n={n}: {stats.mean_cycles:.3f}~{target:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"sampling took {elapsed:.1f} s"
    print(f"PASS criterion 6: mean cycle count within 3 se of H_n ({'; '.join(lines)}), {elapsed:.1f} s")


def test_criterion_7_linear_scaling():
    report = run_primorial_scaling(20, rng_seed=0, repeats=1)
    lo, hi = ratio_band(report, window=10.0)
    assert hi / lo <= 3, f"primorial band [{lo:.3f}, {hi:.3f}]"
    big = run_random_scaling(
        sizes=(10**3, 10**4, 10**5, 2 * 10**5, 5 * 10**5, 10**6),
        rng_seed=0,
        repeats=1,
    )
    # window 12 in bits spans the top decade of degrees (index width grows too)
    lo_r, hi_r = ratio_band(big, window=12.0)
    assert hi_r / lo_r <= 3, f"random band [{lo_r:.3f}, {hi_r:.3f}]"
    series = []
    for n in (100, 1000, 10000):
        stats = measure_average_cost(n, 300, rng_seed=77)
        series.append((n, stats.mean_word_ops))
    slope = fit_polylog_exponent(series)
    assert 0 < slope <= 5, f"fitted polylog exponent {slope:.2f}"
    print(
        f"PASS criterion 7: primorial band [{lo:.3f}, {hi:.3f}], random band "
        f"[{lo_r:.3f}, {hi_r:.3f}] (degree {big.rows[-1].degree}), solver cost "
        f"~ (log n)^{slope:.2f}"
    )


def test_criterion_8_primorial_orders():
    expected = [2, 6, 30, 210, 2310, 30030, 510510, 9699690]
    got = [order(primorial_permutation(i)) for i in range(1, 9)]
    assert got == expected
    rng = random.Random(2026_08_08)
    ratios = []
    for i in range(1, 9):
        g = primorial_permutation(i)
        marks = ["0"] * g.n
        for c in g.cycles:
            marks[c.elements[0] - 1] = "1"
        v = "".join(marks)
        r_star = rng.randrange(order(g))
        w = apply_power(g, r_star, v)
        counter = CostCounter()
        answer = decide_orbit(g, v, w, counter)
        assert answer.in_orbit and r_star in answer.solutions
        bits = instance_size_bits(g, v, w)
        assert counter.word_ops <= 32 * bits, (i, counter.word_ops, bits)
        ratios.append(counter.word_ops / bits)
    print(
        f"PASS criterion 8: orders {got}, decision cost {min(ratios):.2f}-"
        f"{max(ratios):.2f} word ops per input bit"
    )
