"""Counted pass: answers every input once with CostCounter and CrtStats, untimed.

    python3 perfbench/count.py --inputs FILE --kind orbit|system

run.py starts this script twice, each time in a fresh interpreter, and the
two passes must count exactly the same.  The last line of output is a JSON
list with one row of counts per input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spans import patched

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from cyclorbit import (  # noqa: E402
    CongruenceSystem,
    CostCounter,
    CrtStats,
    decide_orbit,
    decide_solvable,
    instance_size_bits,
    orbit,
    solve_system,
)
from cyclorbit.cli import parse_instance_text  # noqa: E402


def counting_hooks(tally):
    """Attribute CostCounter charges and outcomes to the layer that made them."""
    real_match, real_reduce, real_fold = orbit.rotation_exponents, orbit.reduce, orbit.solve_system

    def rotation_exponents(vc, wc, counter=None):
        before = counter.word_ops
        found = real_match(vc, wc, counter)
        tally["comparisons"] += counter.word_ops - before
        tally["symbols"] += len(vc)
        tally["matches"] += len(found)
        tally["matched_cycles"] += 1
        return found

    def reduce(g, v, w, counter=None):
        system = real_reduce(g, v, w, counter)
        tally["reduce_none"] = system is None
        return system

    def fold(system, counter=None):
        before = counter.word_ops
        solutions = real_fold(system, counter)
        tally["equations"] = len(system)
        tally["fold_word_ops"] = counter.word_ops - before
        tally["empty"] = solutions.is_empty
        return solutions

    return [
        (orbit, "rotation_exponents", rotation_exponents),
        (orbit, "reduce", reduce),
        (orbit, "solve_system", fold),
    ]


def counted_orbit(text):
    tally = {"comparisons": 0, "symbols": 0, "matches": 0, "matched_cycles": 0,
             "reduce_none": False, "equations": None, "fold_word_ops": None, "empty": None}
    inst = parse_instance_text(text)
    counter = CostCounter()
    with patched(counting_hooks(tally)):
        answer = decide_orbit(inst.g, inst.v, inst.w, counter)
    lengths = [len(c) for c in inst.g.cycles]
    return {
        "bits": instance_size_bits(inst.g, inst.v, inst.w, len(inst.alphabet)),
        "word_ops": counter.word_ops,
        "max_bits": counter.max_bits,
        "in_orbit": answer.in_orbit,
        "n": inst.n,
        "cycles": len(lengths),
        "longest_cycle": max(lengths, default=0),
        "fixed_points": inst.n - sum(lengths),
        **tally,
    }


def counted_system(text):
    system = CongruenceSystem.from_text(text)
    counter = CostCounter()
    solutions = solve_system(system, counter)
    stats = CrtStats()
    decide_solvable(system, stats)
    return {
        "bits": sum(a.bit_length() + b.bit_length() for a, b in system),
        "word_ops": counter.word_ops,
        "max_bits": counter.max_bits,
        "equations": len(system),
        "fold_word_ops": counter.word_ops,
        "empty": solutions.is_empty,
        "modulus_bits": max((b.bit_length() for _, b in system), default=0),
        "bit_ops": stats.bit_ops,
        "atoms": len(stats.per_atom),
    }


COUNTED = {"orbit": counted_orbit, "system": counted_system}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, help="JSON lines, one {'text': ...} per input")
    parser.add_argument("--kind", required=True, choices=sorted(COUNTED))
    args = parser.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        texts = [json.loads(line)["text"] for line in fh]
    print(json.dumps([COUNTED[args.kind](text) for text in texts]))


if __name__ == "__main__":
    main()
