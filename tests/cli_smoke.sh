#!/usr/bin/env bash
# Console-script smoke checks: the README's instance and system, its per-atom
# crt-check, moduli in descending order, two EMPTY systems, an unwritable CSV
# path, standard output on /dev/full (for an answer, and for --help with
# PYTHONUNBUFFERED=1, whose failed write argparse alone would drop) and
# closed (>&-, which leaves the interpreter no sys.stdout), an
# out-of-range --max-i, a perm line that uses an index twice, 10,000 coprime
# lines read per atom by a reader that stops after one line, a YES and a NO
# instance of 200,000 symbols on one 200,000-cycle within 20 s each, an
# instance whose alphabet holds a no-break space and a NEL (symbols, not
# whitespace or a line end), a residue and a perm index in Arabic-Indic
# digits (exit 2: numbers are ASCII digits), the oracle's exit 3 within 5 s
# on one 100,000-cycle (order 10^5 is inside its bound, 10^10 symbol-steps
# are past its work bound), the 39-name public surface, and the modules the
# CLI loads (neither the deferred ones nor dataclasses and inspect).
#
# Run it in an empty scratch directory, where it writes its input files:
#   bash tests/cli_smoke.sh
# $CYCLORBIT is the command, word-split so that timeout can run it (default
# cyclorbit, e.g. "python -m cyclorbit.cli"); $PYTHON is the interpreter that
# has cyclorbit importable (default python).
set -eo pipefail
CYCLORBIT=${CYCLORBIT:-cyclorbit}
PYTHON=${PYTHON:-python}

printf 'n 9\nalphabet 01\nperm (6,5,7,3,2,1)(4,8,9)\nv 010001111\nw 101110001\n' > instance.txt
printf '1 mod 2\n1 mod 3\n' > sys.txt
test "$($CYCLORBIT solve instance.txt)" = "YES r=1 solutions=1+6Z"
test "$($CYCLORBIT oracle instance.txt)" = "YES r=1 solutions=1+6Z"
test "$($CYCLORBIT congruence sys.txt)" = "1 + 6 Z"
test "$($CYCLORBIT crt-check sys.txt)" = "$(printf 'SOLVABLE\np_max=3 e_max=1 bit_ops=35')"
test "$($CYCLORBIT crt-check --verbose sys.txt)" = "$(printf 'SOLVABLE\np_max=3 e_max=1 bit_ops=35\n  1 mod 2^1: 7 bit ops\n  1 mod 3^1: 7 bit ops')"
printf '1 mod 3\n1 mod 2\n' > descending.txt
test "$($CYCLORBIT congruence descending.txt)" = "1 + 6 Z"
printf '0 mod 2\n1 mod 4\n' > empty.txt
printf '1 mod 6\n2 mod 6\n' > repeated.txt
printf 'n 4\nalphabet 01\nperm (1,2)(2,3)\nv 0101\nw 1001\n' > reused.txt
set +e
empty_out="$($CYCLORBIT congruence empty.txt)"; empty_code=$?
repeated_out="$($CYCLORBIT congruence repeated.txt)"; repeated_code=$?
$CYCLORBIT bench --mode primorial --max-i 2 --repeats 1 --csv . > /dev/null; csv_code=$?
full_err="$($CYCLORBIT solve instance.txt 2>&1 > /dev/full)"; full_code=$?
help_err="$(PYTHONUNBUFFERED=1 $CYCLORBIT --help 2>&1 > /dev/full)"; help_code=$?
closed_err="$($CYCLORBIT solve instance.txt 2>&1 >&-)"; closed_code=$?
max_i_err="$($CYCLORBIT bench --mode primorial --max-i 0 --repeats 1 2>&1 > /dev/null)"; max_i_code=$?
reused_err="$($CYCLORBIT solve reused.txt 2>&1 > /dev/null)"; reused_code=$?
set -e
test "$empty_out" = "EMPTY"
test "$empty_code" -eq 1
test "$repeated_out" = "EMPTY"
test "$repeated_code" -eq 1
test "$csv_code" -eq 2
test "$full_code" -eq 2
[[ $full_err == error:* && $full_err != *Traceback* ]]
test "$help_code" -eq 2
[[ $help_err == error:* && $help_err != *Traceback* ]]
test "$closed_code" -eq 2
[[ $closed_err == error:* && $closed_err != *Traceback* ]]
test "$max_i_code" -eq 2
test "$max_i_err" = "error: i_max must be >= 1, got 0"
test "$reused_code" -eq 2
test "$reused_err" = "error: line 3: index 2 already used (at position 6)"
$PYTHON -c "from itertools import count, islice; from math import isqrt; print(*(f'1 mod {p}' for p in islice((p for p in count(3) if all(p % d for d in range(2, isqrt(p) + 1))), 10000)), sep='\n')" > primes.txt
# one line per atom, more than a pipe buffer holds, so the CLI always meets
# the pipe that head closed, and must leave it without a word on stderr
test "$(timeout 5 $CYCLORBIT crt-check --verbose primes.txt 2> head_err.txt | head -n 1)" = "SOLVABLE"
test ! -s head_err.txt
$PYTHON -c "n = 2 * 10**5; perm = '(' + ','.join(map(str, range(1, n + 1))) + ')'; [open(name + '.txt', 'w').write(f'n {n}\nalphabet 01\nperm {perm}\nv {v}\nw {w}\n') for name, v, w in (('periodic', '01' * (n // 2), '10' * (n // 2)), ('shifted', '0' * (n - 1) + '1', '0' * n))]"
periodic_out="$(timeout 20 $CYCLORBIT solve periodic.txt)"
set +e
shifted_out="$(timeout 20 $CYCLORBIT solve shifted.txt)"; shifted_code=$?
set -e
test "$periodic_out" = "YES r=1 solutions=1+2Z"
test "$shifted_out" = "NO"
test "$shifted_code" -eq 1
printf 'n 2\nalphabet \xc2\xa0\xc2\x85\nperm (1,2)\nv \xc2\xa0\xc2\x85\nw \xc2\x85\xc2\xa0\n' > spaces.txt
test "$($CYCLORBIT solve spaces.txt)" = "YES r=1 solutions=1+2Z"
printf '\xd9\xa1 mod 2\n' > arabic.txt
printf 'n 2\nalphabet 01\nperm (1,\xd9\xa2)\nv 01\nw 10\n' > arabic_perm.txt
set +e
arabic_err="$($CYCLORBIT congruence arabic.txt 2>&1 > /dev/null)"; arabic_code=$?
$CYCLORBIT solve arabic_perm.txt > /dev/null 2>&1; arabic_perm_code=$?
set -e
test "$arabic_code" -eq 2
[[ $arabic_err == "error: line 1: residue must be an integer"* ]]
test "$arabic_perm_code" -eq 2
$PYTHON -c "n = 10**5; z = '0' * n; perm = '(' + ','.join(map(str, range(1, n + 1))) + ')'; open('cycle.txt', 'w').write(f'n {n}\nalphabet 01\nperm {perm}\nv {z}\nw {z}\n')"
set +e
timeout 5 $CYCLORBIT oracle cycle.txt > /dev/null 2>&1; cycle_code=$?
set -e
test "$cycle_code" -eq 3
$PYTHON -c "import cyclorbit; assert len(cyclorbit.__all__) == 39 and not hasattr(cyclorbit, 'factorize')"
$PYTHON -c "import sys, cyclorbit.cli; assert not {'cyclorbit.analysis', 'cyclorbit.bench', 'cyclorbit.crt_solver', 'cyclorbit.oracle', 'dataclasses', 'inspect'} & sys.modules.keys()"
