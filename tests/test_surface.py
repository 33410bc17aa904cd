"""The public surface of cyclorbit, and its answers to hostile arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclorbit
from cyclorbit import (
    ArithmeticProgression,
    CongruenceSystem,
    CostCounter,
    Cycle,
    OrbitAnswer,
    Permutation,
    apply,
    apply_power,
    brute_force_orbit,
    decide_orbit,
    decide_solvable,
    format_permutation,
    harmonic_values,
    instance_size_bits,
    naive_intersection,
    order,
    parse_permutation,
    progression,
    project,
    ratio_band,
    reduce,
    rotate_right,
    rotation_exponents,
    solve_system,
)
from cyclorbit.cli import parse_instance_text
from cyclorbit.permutation import check_configuration
from cyclorbit.strmatch import kmp_search_count

PUBLIC = {
    "BACKEND", "EMPTY", "NOT_IN_ORBIT", "ArithmeticProgression", "CongruenceSystem",
    "CostCounter", "CrtStats", "Cycle", "CycleNotationError", "OrbitAnswer",
    "OrderBoundExceeded", "Permutation", "SystemFormatError", "apply", "apply_power",
    "brute_force_orbit", "decide_orbit", "decide_solvable", "fit_polylog_exponent",
    "format_permutation", "harmonic_values", "instance_size_bits", "measure_average_cost",
    "naive_intersection", "order", "parse_permutation", "primorial_permutation",
    "progression", "project", "ratio_band", "reduce", "rotate_right", "rotation_exponents",
    "run_primes_then_pairs_scaling", "run_primorial_scaling", "run_random_scaling",
    "solve_system", "verify_moment_identities", "__version__",
}

# internal kernels and tables, imported from their modules
INTERNAL = {
    "Configuration": "permutation", "CoprimeBase": "crt_solver", "StirlingTable": "analysis",
    "cycle_count_moments": "analysis", "asymptotic_ratio_report": "analysis",
    "extended_gcd": "congruence", "factorize": "crt_solver", "first_primes": "permutation",
    "brute_force_cycle_solutions": "oracle",
}


def test_all_is_the_pinned_surface():
    assert len(cyclorbit.__all__) == len(PUBLIC) == 39
    assert set(cyclorbit.__all__) == PUBLIC


def test_every_public_name_resolves():
    star = {}
    exec("from cyclorbit import *", star)
    for name in cyclorbit.__all__:
        assert star[name] is getattr(cyclorbit, name)


def test_internal_names_stay_in_their_modules():
    for name, module in INTERNAL.items():
        assert not hasattr(cyclorbit, name)
        assert hasattr(getattr(cyclorbit, module), name)


# the modules a decision runs; the measurements, the oracle and crt_solver
# load when one of their names is first read, and dataclasses with them
FOOTPRINT = """
import sys
import cyclorbit
import cyclorbit.cli
loaded = [m for m in sys.modules if m.startswith("cyclorbit.")]
assert not {"dataclasses", "inspect"} & sys.modules.keys(), "the decision path loads dataclasses"
assert set(cyclorbit.__all__) <= set(dir(cyclorbit)), "dir misses public names"
from cyclorbit import analysis, bench, crt_solver, oracle
print(*loaded)
"""


def test_import_loads_only_the_decision_path():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert set(out.stdout.split()) == {
        "cyclorbit.cli", "cyclorbit.congruence", "cyclorbit.orbit", "cyclorbit.permutation",
        "cyclorbit.strmatch",
    }


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        cyclorbit.nonexistent  # noqa: B018


G3 = parse_permutation("(1,2,3)", 3)
G2 = Permutation(2, [(1, 2)])


@pytest.mark.parametrize(
    ("call", "error"),
    [
        pytest.param(lambda: decide_orbit(G3, list("abc"), list("bca")), TypeError,
                     id="decide_orbit-list"),
        pytest.param(lambda: reduce(G3, list("abc"), list("bca")), TypeError, id="reduce-list"),
        pytest.param(lambda: apply(G3, list("abc")), TypeError, id="apply-list"),
        pytest.param(lambda: apply_power(G3, 1, list("abc")), TypeError, id="apply_power-list"),
        pytest.param(lambda: project("abc", (0,)), ValueError, id="project-index-0"),
        pytest.param(lambda: project("abc", (-1, 1)), ValueError, id="project-negative"),
        pytest.param(lambda: project(list("abc"), Cycle((1, 2))), TypeError, id="project-list"),
        pytest.param(lambda: rotate_right(list("abc"), 1), TypeError, id="rotate_right-list"),
        pytest.param(lambda: rotation_exponents(list("abc"), list("bca")), TypeError,
                     id="rotation_exponents-list"),
        pytest.param(lambda: kmp_search_count(list("abcabc"), "bca"), TypeError,
                     id="kmp_search_count-list-text"),
        pytest.param(lambda: kmp_search_count("abcabc", list("bca")), TypeError,
                     id="kmp_search_count-list-pattern"),
        pytest.param(lambda: solve_system(((1.5, 2),)), TypeError, id="solve_system-float"),
        pytest.param(lambda: solve_system(((1, 0),)), TypeError, id="solve_system-modulus-0"),
        pytest.param(lambda: decide_solvable(((5, 3), (2, 3))), TypeError,
                     id="decide_solvable-tuple"),
        pytest.param(lambda: naive_intersection(((5, 3),)), TypeError,
                     id="naive_intersection-tuple"),
        pytest.param(lambda: instance_size_bits(G2, "01", "10", alphabet_size=2.5), TypeError,
                     id="instance_size_bits-float"),
        pytest.param(lambda: instance_size_bits(G2, "01", "10", alphabet_size=0), ValueError,
                     id="instance_size_bits-0"),
        pytest.param(lambda: instance_size_bits(G3, "ab", "abcd"), ValueError,
                     id="instance_size_bits-length"),
        pytest.param(lambda: instance_size_bits(G3, list("abc"), list("abc")), TypeError,
                     id="instance_size_bits-list"),
        pytest.param(lambda: brute_force_orbit(G3, "abc", "bca", bound=3.5), TypeError,
                     id="brute_force_orbit-float-bound"),
        pytest.param(lambda: brute_force_orbit(G3, list("abc"), list("bca")), TypeError,
                     id="brute_force_orbit-list"),
        pytest.param(lambda: naive_intersection(CongruenceSystem(((1, 2),)), scan_bound=2.5),
                     TypeError, id="naive_intersection-float-bound"),
        pytest.param(lambda: harmonic_values(-1), ValueError, id="harmonic_values-negative"),
        pytest.param(lambda: decide_orbit(((1, 2, 3),), "abc", "bca"), TypeError,
                     id="decide_orbit-tuple-g"),
        pytest.param(lambda: reduce([(1, 2)], "ab", "ba"), TypeError, id="reduce-list-g"),
        pytest.param(lambda: apply("(1,2)", "ab"), TypeError, id="apply-str-g"),
        pytest.param(lambda: apply_power(None, 1, "ab"), TypeError, id="apply_power-none-g"),
        pytest.param(lambda: order([(1, 2)]), TypeError, id="order-list"),
        pytest.param(lambda: format_permutation("(1,2)"), TypeError, id="format_permutation-str"),
        pytest.param(lambda: instance_size_bits(None, "ab", "ba"), TypeError,
                     id="instance_size_bits-none-g"),
        pytest.param(lambda: brute_force_orbit(((1, 2, 3),), "abc", "bca"), TypeError,
                     id="brute_force_orbit-tuple-g"),
        pytest.param(lambda: decide_orbit(G3, "abc", "bca", 5), TypeError,
                     id="decide_orbit-int-counter"),
        pytest.param(lambda: reduce(G3, "abc", "bca", "x"), TypeError, id="reduce-str-counter"),
        pytest.param(lambda: solve_system(CongruenceSystem(((1, 2),)), 5), TypeError,
                     id="solve_system-int-counter"),
        pytest.param(lambda: rotation_exponents("ab", "ba", 5), TypeError,
                     id="rotation_exponents-int-counter"),
        pytest.param(lambda: decide_solvable(CongruenceSystem(((1, 2),)), 5), TypeError,
                     id="decide_solvable-int-stats"),
        pytest.param(lambda: CongruenceSystem.from_text(5), TypeError, id="from_text-int"),
        pytest.param(lambda: ratio_band(None), TypeError, id="ratio_band-none"),
        pytest.param(lambda: OrbitAnswer(True, 5), TypeError, id="OrbitAnswer-int-solutions"),
        pytest.param(lambda: OrbitAnswer("yes", progression(0, 1)), TypeError,
                     id="OrbitAnswer-str-in_orbit"),
        pytest.param(lambda: parse_permutation(5, 3), TypeError, id="parse_permutation-int"),
        pytest.param(lambda: parse_permutation(b"(1,2)", 3), TypeError,
                     id="parse_permutation-bytes"),
        pytest.param(lambda: parse_instance_text(5), TypeError, id="parse_instance_text-int"),
        pytest.param(lambda: Permutation(), TypeError, id="Permutation-no-degree"),
        pytest.param(lambda: ArithmeticProgression(1), TypeError,
                     id="ArithmeticProgression-no-period"),
        pytest.param(lambda: OrbitAnswer(), TypeError, id="OrbitAnswer-no-in_orbit"),
        pytest.param(lambda: Permutation(3, cycles=(), extra=1), TypeError,
                     id="Permutation-unknown-keyword"),
        pytest.param(lambda: CostCounter(0), TypeError, id="CostCounter-argument"),
    ],
)
def test_hostile_arguments_fail_typed(call, error):
    # RuntimeError is kept for the library's own faults, so it must not show here
    with pytest.raises(error):
        call()


SYSTEM = CongruenceSystem(((1, 2),))


# one row per typed argument that congruence.expect reads
@pytest.mark.parametrize(
    ("call", "what", "got"),
    [
        pytest.param(lambda: kmp_search_count(list("ab"), "b"), "text", "list",
                     id="kmp_search_count-text"),
        pytest.param(lambda: kmp_search_count("ab", list("b")), "pattern", "list",
                     id="kmp_search_count-pattern"),
        pytest.param(lambda: rotate_right(b"ab", 1), "s", "bytes", id="rotate_right-s"),
        pytest.param(lambda: rotation_exponents(list("ab"), "ba"), "vc", "list",
                     id="rotation_exponents-vc"),
        pytest.param(lambda: rotation_exponents("ab", list("ba")), "wc", "list",
                     id="rotation_exponents-wc"),
        pytest.param(lambda: rotation_exponents("ab", "ba", 5), "counter", "int",
                     id="rotation_exponents-counter"),
        pytest.param(lambda: solve_system(((1, 2),)), "system", "tuple", id="solve_system-system"),
        pytest.param(lambda: solve_system(SYSTEM, 5), "counter", "int",
                     id="solve_system-counter"),
        pytest.param(lambda: reduce(G3, "abc", "bca", "x"), "counter", "str", id="reduce-counter"),
        pytest.param(lambda: order([(1, 2)]), "g", "list", id="order-g"),
        pytest.param(lambda: check_configuration(None, "ab"), "g", "NoneType",
                     id="check_configuration-g"),
        pytest.param(lambda: check_configuration(G2, "ab", list("ba")), "configuration", "list",
                     id="check_configuration-configuration"),
        pytest.param(lambda: format_permutation("(1,2)"), "g", "str", id="format_permutation-g"),
        pytest.param(lambda: project(list("abc"), Cycle((1, 2))), "v", "list", id="project-v"),
        pytest.param(lambda: decide_solvable(((1, 2),)), "system", "tuple",
                     id="decide_solvable-system"),
        pytest.param(lambda: decide_solvable(SYSTEM, CostCounter()), "stats", "CostCounter",
                     id="decide_solvable-stats"),
        pytest.param(lambda: CongruenceSystem.from_text(b"1 mod 2"), "text", "bytes",
                     id="from_text-text"),
        pytest.param(lambda: ratio_band(None), "report", "NoneType", id="ratio_band-report"),
        pytest.param(lambda: OrbitAnswer(True, 5), "solutions", "int",
                     id="OrbitAnswer-solutions"),
        pytest.param(lambda: OrbitAnswer("yes", progression(0, 1)), "in_orbit", "str",
                     id="OrbitAnswer-in_orbit"),
        pytest.param(lambda: parse_permutation(5, 3), "text", "int", id="parse_permutation-text"),
        pytest.param(lambda: parse_permutation(b"(1,2)", 3), "text", "bytes",
                     id="parse_permutation-bytes-text"),
        pytest.param(lambda: parse_instance_text(5), "text", "int",
                     id="parse_instance_text-text"),
    ],
)
def test_wrong_type_names_the_argument(call, what, got):
    with pytest.raises(TypeError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{what} must be ") and got in message
