"""Measuring process: answers one workload's inputs with cyclorbit in a closed loop.

run.py starts this script with the generated inputs and checks the answers
it prints.  One caller on one thread: each operation starts when the
previous one has returned.  An operation is the library work behind one CLI
command, on text already in memory:

  orbit   parse_instance_text, then decide_orbit       (cyclorbit solve)
  system  CongruenceSystem.from_text, then solve_system and decide_solvable
          with a CrtStats                               (congruence, crt-check)

The timed loop runs whole rounds over the inputs until --seconds have
passed.  Untraced, it also times `import cyclorbit` in fresh interpreters
between rounds, spread evenly over the run, for setup_s.  With --trace 1
every operation is run twice in a row, untraced and then traced, and the
spans give the per-layer timings.  The last line of output is one JSON
object holding everything run.py needs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Recorder, patched

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import cyclorbit  # noqa: E402
from cyclorbit import cli, crt_solver, orbit  # noqa: E402
from cyclorbit import (  # noqa: E402
    CongruenceSystem,
    CrtStats,
    Permutation,
    decide_orbit,
    decide_solvable,
    solve_system,
)
from cyclorbit.cli import parse_instance_text  # noqa: E402

if Path(cyclorbit.__file__).resolve().parent != (SRC / "cyclorbit").resolve():
    raise SystemExit(f"cyclorbit was imported from {cyclorbit.__file__}, not from {SRC}")

SETUP_SAMPLES = 11  # fresh-interpreter imports timed during an untraced run
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cyclorbit; print(time.perf_counter() - t)"
)


def import_time():
    """How long `import cyclorbit` takes in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def orbit_answer(a):
    return [a.in_orbit, a.witness, None if a.solutions is None else a.solutions.period]


def orbit_op(text):
    inst = parse_instance_text(text)
    return orbit_answer(decide_orbit(inst.g, inst.v, inst.w))


def orbit_op_traced(text, rec):
    inst = rec.call("cli.parse_instance_text", parse_instance_text, text)
    return orbit_answer(rec.call("orbit.decide_orbit", decide_orbit, inst.g, inst.v, inst.w))


def system_op(text):
    system = CongruenceSystem.from_text(text)
    s = solve_system(system)
    return [s.offset, s.period, decide_solvable(system, CrtStats())]


def system_op_traced(text, rec):
    system = rec.call("congruence.from_text", CongruenceSystem.from_text, text)
    s = rec.call("congruence.solve_system", solve_system, system)
    solvable = rec.call("crt_solver.decide_solvable", decide_solvable, system, CrtStats())
    return [s.offset, s.period, solvable]


OPS = {"orbit": (orbit_op, orbit_op_traced), "system": (system_op, system_op_traced)}


def layer_hooks(rec):
    """Spans on the calls the answer path makes between modules."""
    return [
        (cli, "parse_permutation", rec.wrap("permutation.parse_permutation", cli.parse_permutation)),
        (orbit, "reduce", rec.wrap("orbit.reduce", orbit.reduce)),
        (orbit, "solve_system", rec.wrap("congruence.solve_system", orbit.solve_system)),
        (orbit, "apply_power", rec.wrap("permutation.apply_power", orbit.apply_power)),
        (orbit, "project", rec.wrap("permutation.project", orbit.project)),
        (orbit, "rotation_exponents",
         rec.wrap("strmatch.rotation_exponents", orbit.rotation_exponents)),
        (Permutation, "moved_mask", rec.wrap("permutation.moved_mask", Permutation.moved_mask)),
        (crt_solver, "factorize", rec.wrap("crt_solver.factorize", crt_solver.factorize)),
    ]


def run_op(op, *args):
    """(seconds, answer); a raising operation is a failure, not the end of the run."""
    t0 = perf_counter()
    try:
        answer = op(*args)
    except Exception as exc:
        answer = {"error": f"{type(exc).__name__}: {exc}"}
    return perf_counter() - t0, answer


def timed_loop(texts, kind, seconds, rec, setup_samples):
    """(ops, setup): ops rows are [input index, seconds, answer, traced];
    setup holds setup_samples import times, taken between rounds."""
    op, op_traced = OPS[kind]
    ops = []
    setup = []
    hooks = layer_hooks(rec) if rec is not None else None
    start = perf_counter()
    while (elapsed := perf_counter() - start) < seconds:
        while len(setup) < setup_samples * elapsed / seconds:
            setup.append(import_time())
        for i, text in enumerate(texts):
            ops.append([i, *run_op(op, text), False])
            if rec is None:
                continue
            rec.op = len(ops)
            with patched(hooks):
                ops.append([i, *run_op(rec.call, "op", op_traced, text, rec), True])
    while len(setup) < setup_samples:
        setup.append(import_time())
    return ops, setup


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(rec, ops):
    """Per-layer timings: per-operation medians of span time.  A metric whose
    layer never ran on this workload reads 0."""
    per_op = list(rec.per_op().values())

    def ms(name):
        return _median([t[name] * 1e3 for t in per_op if name in t])

    def share(part_names, whole):
        return _median([sum(t.get(p, 0.0) for p in part_names) / t[whole]
                        for t in per_op if whole in t])

    untraced = {}
    pairs = []
    for i, seconds, _, traced in ops:
        if traced:
            pairs.append(seconds / untraced[i])
        else:
            untraced[i] = seconds

    return {
        "cli.parse_instance_ms": (ms("cli.parse_instance_text"), "ms"),
        "permutation.parse_permutation_ms": (ms("permutation.parse_permutation"), "ms"),
        "permutation.moved_mask_ms": (ms("permutation.moved_mask"), "ms"),
        "permutation.project_ms": (ms("permutation.project"), "ms"),
        "permutation.apply_power_ms": (ms("permutation.apply_power"), "ms"),
        "strmatch.rotation_exponents_ms": (ms("strmatch.rotation_exponents"), "ms"),
        "orbit.reduce_ms": (ms("orbit.reduce"), "ms"),
        "orbit.decide_orbit_ms": (ms("orbit.decide_orbit"), "ms"),
        "orbit.decide_coverage": (share(("orbit.reduce", "congruence.solve_system",
                                         "permutation.apply_power"), "orbit.decide_orbit"), "frac"),
        "orbit.reduce_coverage": (share(("permutation.moved_mask", "permutation.project",
                                         "strmatch.rotation_exponents"), "orbit.reduce"), "frac"),
        "orbit.verify_share": (
            _median([t["permutation.apply_power"] / t["orbit.decide_orbit"]
                     for t in per_op if "permutation.apply_power" in t]), "frac"),
        "congruence.from_text_ms": (ms("congruence.from_text"), "ms"),
        "congruence.solve_system_ms": (ms("congruence.solve_system"), "ms"),
        "crt_solver.decide_solvable_ms": (ms("crt_solver.decide_solvable"), "ms"),
        "crt_solver.factorize_ms": (ms("crt_solver.factorize"), "ms"),
        "crt_solver.factorize_share": (
            share(("crt_solver.factorize",), "crt_solver.decide_solvable"), "frac"),
        "trace.overhead_frac": (_median(pairs) - 1.0 if pairs else 0.0, "frac"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, help="JSON lines, one {'text': ...} per input")
    parser.add_argument("--kind", required=True, choices=sorted(OPS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", required=True, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    with open(args.inputs, encoding="utf-8") as fh:
        texts = [json.loads(line)["text"] for line in fh]
    gc.collect()
    rec = Recorder() if args.trace else None
    ops, setup = timed_loop(texts, args.kind, args.seconds, rec,
                            0 if args.trace else SETUP_SAMPLES)
    out = {
        "backend": cyclorbit.BACKEND,
        "ops": ops,
        "setup": setup,
        "rss_peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec is not None:
        out["layers"] = layer_metrics(rec, ops)
        rec.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
