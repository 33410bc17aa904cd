"""Command-line front end.

Exit codes: 0 for YES / solvable / all checks passed, 1 for NO / empty /
unsolvable, 2 for malformed or over-budget input, 3 when the brute-force
oracle refuses because the group order exceeds its bound.

Each subcommand imports the modules only it uses, so `solve` and
`congruence` load the decision path alone.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .congruence import CongruenceSystem, at_least, clip, content_lines, parse_int, solve_system
from .orbit import decide_orbit
from .permutation import CycleNotationError, Permutation, parse_permutation

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


class InstanceError(ValueError):
    """Malformed instance file; message already carries line context."""


@dataclass
class Instance:
    n: int
    alphabet: str
    g: Permutation
    v: str
    w: str


def parse_instance_text(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Required keys, one per line: n, alphabet, perm, v, w.  Blank lines and
    lines starting with # are skipped.  perm takes cycle notation and may
    be empty for the identity.
    """
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in content_lines(text):
        key, _, value = line.partition(" ")
        if key not in ("n", "alphabet", "perm", "v", "w"):
            raise InstanceError(f"line {lineno}: unknown key {clip(repr(key))}")
        if key in fields:
            raise InstanceError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
        lines[key] = lineno
    for key in ("n", "alphabet", "perm", "v", "w"):
        if key not in fields:
            raise InstanceError(f"missing key {key!r}")
    try:
        n = at_least(parse_int(fields["n"], "n"), 1, "n")
    except ValueError as exc:
        raise InstanceError(f"line {lines['n']}: {exc}") from None
    alphabet = fields["alphabet"]
    if not alphabet:
        raise InstanceError(f"line {lines['alphabet']}: alphabet is empty")
    symbols = set(alphabet)
    if len(symbols) != len(alphabet):
        raise InstanceError(f"line {lines['alphabet']}: repeated alphabet symbol")
    try:
        g = parse_permutation(fields["perm"], n)
    except CycleNotationError as exc:
        raise InstanceError(f"line {lines['perm']}: {exc}") from None
    for key in ("v", "w"):
        value = fields[key]
        if len(value) != n:
            raise InstanceError(
                f"line {lines[key]}: {key} has length {len(value)}, expected {clip(n)}"
            )
        if not set(value) <= symbols:
            pos, ch = next((pos, ch) for pos, ch in enumerate(value) if ch not in symbols)
            raise InstanceError(
                f"line {lines[key]}: {key} has symbol {ch!r} outside the "
                f"alphabet (at position {pos})"
            )
    return Instance(n, alphabet, g, fields["v"], fields["w"])


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path} is not utf-8 text: {exc}") from None


def load_instance(path: str) -> Instance:
    return parse_instance_text(_read_text(path))


def _write_csv(path: str, rows) -> None:
    import csv

    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _print_answer(answer) -> None:
    """Print answer; one too wide to print in decimal is an over-budget input."""
    try:
        text = str(answer)
    except ValueError:  # past the int digit limit; the offset is below the period
        digits = sys.get_int_max_str_digits()
        raise ValueError(f"solution period has more than {digits} digits") from None
    print(text)


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    answer = decide_orbit(inst.g, inst.v, inst.w)
    _print_answer(answer)
    return EXIT_YES if answer.in_orbit else EXIT_NO


def _cmd_oracle(args) -> int:
    from .oracle import OrderBoundExceeded, brute_force_orbit

    inst = load_instance(args.instance)
    try:
        answer = brute_force_orbit(inst.g, inst.v, inst.w, bound=args.bound)
    except OrderBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    print(answer)
    return EXIT_YES if answer.in_orbit else EXIT_NO


def _cmd_congruence(args) -> int:
    system = CongruenceSystem.from_text(_read_text(args.system))
    solutions = solve_system(system)
    _print_answer(solutions)
    return EXIT_YES if not solutions.is_empty else EXIT_NO


def _cmd_crt_check(args) -> int:
    from .crt_solver import CrtStats, decide_solvable

    system = CongruenceSystem.from_text(_read_text(args.system))
    stats = CrtStats()
    solvable = decide_solvable(system, stats)
    print("SOLVABLE" if solvable else "UNSOLVABLE")
    print(f"p_max={stats.p_max} e_max={stats.e_max} bit_ops={stats.bit_ops}")
    if args.verbose:
        for (q, e, z), cost in stats.per_atom:
            print(f"  {z} mod {q}^{e}: {cost} bit ops")
    return EXIT_YES if solvable else EXIT_NO


def _cmd_stirling(args) -> int:
    from .analysis import asymptotic_ratio_report, verify_moment_identities

    report = verify_moment_identities(args.max_n)
    if report.ok:
        print(f"OK: {report.checked} identity checks up to n={report.n_max}, all exact")
    else:
        for n, name, lhs, rhs in report.failures:
            print(f"FAIL n={n} {name}: {lhs} != {rhs}")
    if args.ratios:
        rows = asymptotic_ratio_report(args.ratios)
        print("n\tE[K^3]/ln(n)^3")
        for n, ratio in rows:
            print(f"{n}\t{ratio:.6f}")
    return EXIT_YES if report.ok else EXIT_NO


def _cmd_bench(args) -> int:
    from .analysis import measure_average_cost
    from .bench import ratio_band, run_primorial_scaling

    if args.mode == "primorial":
        report = run_primorial_scaling(args.max_i, rng_seed=args.seed, repeats=args.repeats)
        lo, hi = ratio_band(report)
        print(f"{'label':>8} {'degree':>8} {'bits':>10} {'word_ops':>10} "
              f"{'ops/bit':>8} {'order_bits':>10} {'time_s':>10}")
        for r in report.rows:
            print(
                f"{r.label:>8} {r.degree:>8} {r.input_size_bits:>10} {r.word_ops:>10} "
                f"{r.word_ops / r.input_size_bits:>8.3f} {r.order_bits:>10} {r.wall_time:>10.3g}"
            )
        print(f"ops/bit band over the top decade: [{lo:.3f}, {hi:.3f}]")
        if args.csv:
            _write_csv(args.csv, report.csv_rows())
        return EXIT_YES
    stats = measure_average_cost(args.n, args.trials, args.seed)
    print(
        f"n={stats.n} trials={stats.trials} mean_cycles={stats.mean_cycles:.4f} "
        f"(se {stats.se_cycles:.4f}) mean_word_ops={stats.mean_word_ops:.2f} "
        f"max_word_ops={stats.max_word_ops} mean_max_bits={stats.mean_max_bits:.1f}"
    )
    if args.csv:
        _write_csv(args.csv, stats.csv_rows())
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclorbit",
        description="Decide orbit membership under iterated permutations via linear congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance with the linear reduction")
    p.add_argument("instance", help="instance file (keys: n, alphabet, perm, v, w)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="decide an instance by brute-force enumeration")
    p.add_argument("instance")
    p.add_argument("--bound", type=int, default=10**6,
                   help="refuse when order(g) exceeds this (default 1e6)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("congruence", help="solve a congruence system ('a mod b' lines)")
    p.add_argument("system", help="system file, one 'a mod b' per line")
    p.set_defaults(func=_cmd_congruence)

    p = sub.add_parser("crt-check", help="decide solvability by splitting over a coprime base")
    p.add_argument("system")
    p.add_argument("--verbose", action="store_true", help="per-atom bit-op costs")
    p.set_defaults(func=_cmd_crt_check)

    p = sub.add_parser("stirling", help="verify the exact cycle-count moment identities")
    p.add_argument("--max-n", type=int, default=200)
    p.add_argument("--ratios", type=int, default=0, metavar="N",
                   help="also print E[K^3]/ln(n)^3 up to N")
    p.set_defaults(func=_cmd_stirling)

    p = sub.add_parser("bench", help="scaling and average-cost measurements")
    p.add_argument("--mode", choices=("primorial", "average"), default="primorial")
    p.add_argument("--max-i", type=int, default=12, help="primorial mode: largest i")
    p.add_argument("--n", type=int, default=100, help="average mode: degree")
    p.add_argument("--trials", type=int, default=1000, help="average mode: trials")
    p.add_argument("--repeats", type=int, default=5, help="timing repeats per row")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="PATH", help="also write the rows as CSV")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
