import os
import random
import subprocess
import sys

import pytest

import cyclorbit
from cyclorbit import OrbitAnswer, Permutation, apply_power, format_permutation, progression
from cyclorbit.cli import (
    EXIT_BOUND,
    EXIT_INPUT,
    EXIT_NO,
    EXIT_YES,
    InstanceError,
    main,
    parse_instance_text,
)
from cyclorbit.permutation import cycles_of_mapping

EXAMPLE = """\
# the worked two-cycle instance
n 9
alphabet 01
perm (6,5,7,3,2,1)(4,8)
v 010001111
w 101110001
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_instance():
    inst = parse_instance_text(EXAMPLE)
    assert inst.n == 9
    assert inst.alphabet == "01"
    assert len(inst.g.cycles) == 2
    assert inst.v == "010001111"


def test_parse_instance_errors():
    cases = [
        ("n 2\nalphabet 01\nperm \nv 01\n", "missing key 'w'"),
        ("n x\nalphabet 01\nperm \nv 01\nw 01\n", "line 1"),
        ("n 2\nalphabet 011\nperm \nv 01\nw 01\n", "repeated"),
        ("n 2\nalphabet 01\nperm (1,3)\nv 01\nw 01\n", "line 3"),
        ("n 2\nalphabet 01\nperm \nv 012\nw 01\n", "length"),
        ("n 2\nalphabet 01\nperm \nv 0x\nw 01\n", "position 1"),
        ("n 2\nalphabet 01\nperm \nv 01\nw 01\nv 10\n", "duplicate"),
        ("bogus 3\n", "unknown key"),
        ("n 0\nalphabet 01\nperm \nv \nw \n", "line 1: n must be >= 1, got 0"),
        ("n 2\nalphabet \nperm \nv 01\nw 01\n", "line 2: alphabet is empty"),
        (f"n -{'9' * 5000}\nalphabet 01\nperm \nv 01\nw 01\n", "line 1: n has 5000 digits"),
    ]
    for text, fragment in cases:
        with pytest.raises(InstanceError) as exc:
            parse_instance_text(text)
        assert fragment in str(exc.value), text


def test_solve_yes(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", EXAMPLE)
    assert main(["solve", path]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "YES r=1 solutions=1+2Z"


def test_solve_no(tmp_path, capsys):
    text = EXAMPLE.replace("w 101110001", "w 101110000")
    path = write(tmp_path, "inst.txt", text)
    assert main(["solve", path]) == EXIT_NO
    assert capsys.readouterr().out.strip() == "NO"


def test_oracle_matches_solve_output(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", EXAMPLE)
    main(["solve", path])
    solve_out = capsys.readouterr().out
    assert main(["oracle", path]) == EXIT_YES
    assert capsys.readouterr().out == solve_out


def test_oracle_bound(tmp_path, capsys):
    lines = ["n 28", "alphabet 01", "perm (1,2)(3,4,5)(6,7,8,9,10)(11,12,13,14,15,16,17)"
             "(18,19,20,21,22,23,24,25,26,27,28)", "v " + "0" * 28, "w " + "0" * 28]
    path = write(tmp_path, "inst.txt", "\n".join(lines) + "\n")
    assert main(["oracle", path, "--bound", "100"]) == EXIT_BOUND
    err = capsys.readouterr().err
    assert "2310" in err
    assert main(["oracle", path]) == EXIT_YES


def test_oracle_negative_bound(tmp_path, capsys):
    # an int bound keeps its meaning: even the identity's order 1 exceeds -1
    path = write(tmp_path, "inst.txt", "n 2\nalphabet 01\nperm\nv 01\nw 01\n")
    assert main(["oracle", path, "--bound", "-1"]) == EXIT_BOUND
    assert capsys.readouterr().err == "error: order 1 exceeds the bound -1\n"


def test_solve_malformed(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", "n 2\nalphabet 01\nperm (1,2\nv 01\nw 10\n")
    assert main(["solve", path]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_solve_oversized_n(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", f"n {'9' * 5000}\nalphabet 01\nperm\nv 0\nw 0\n")
    assert main(["solve", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "5000 digits" in err
    assert len(err) < 200


def test_solve_oversized_index(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", f"n 2\nalphabet 01\nperm (1,{'9' * 5000})\nv 01\nw 10\n")
    assert main(["solve", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "position" in err and "5000 digits" in err
    assert len(err) < 200


def test_solve_index_outside_clipped(tmp_path, capsys):
    # 4300 digits is inside the int limit, so only the range check sees it
    path = write(tmp_path, "inst.txt", f"n 1\nalphabet 01\nperm (1,{'9' * 4300})\nv 0\nw 0\n")
    assert main(["solve", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "outside" in err and "4300 characters" in err
    assert len(err) < 200


def test_solve_unknown_key_clipped(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", "k" * 100_000 + "\n")
    assert main(["solve", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "unknown key" in err and "100002 characters" in err
    assert len(err) < 200


def test_not_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("n 2\nalphabet \xe9\n".encode("latin-1"))
    for command in ("solve", "congruence"):
        assert main([command, str(path)]) == EXIT_INPUT
        assert "not utf-8" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/instance.txt"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_congruence_command(tmp_path, capsys):
    path = write(tmp_path, "sys.txt", "1 mod 2\n1 mod 3\n")
    assert main(["congruence", path]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "1 + 6 Z"
    path = write(tmp_path, "bad.txt", "0 mod 2\n1 mod 2\n")
    assert main(["congruence", path]) == EXIT_NO
    assert capsys.readouterr().out.strip() == "EMPTY"
    path = write(tmp_path, "oops.txt", "1 mod\n")
    assert main(["congruence", path]) == EXIT_INPUT
    assert "line 1" in capsys.readouterr().err


def test_congruence_oversized_residue(tmp_path, capsys):
    path = write(tmp_path, "sys.txt", f"{'9' * 5000} mod 7\n")
    assert main(["congruence", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "5000 digits" in err
    assert len(err) < 200


def test_answer_too_wide_to_print(tmp_path, capsys, monkeypatch):
    # both moduli parse, but their product has 8,581 digits
    path = write(tmp_path, "sys.txt", f"1 mod {10**4290 + 1}\n2 mod {10**4290 + 3}\n")
    assert main(["congruence", path]) == EXIT_INPUT
    # an orbit of that period needs n in the millions, so solve gets a stand-in answer
    wide = OrbitAnswer(True, progression(1, 10**5000))
    monkeypatch.setattr("cyclorbit.cli.decide_orbit", lambda *args: wide)
    assert main(["solve", write(tmp_path, "inst.txt", EXAMPLE)]) == EXIT_INPUT
    message = "error: solution period has more than 4300 digits"
    assert capsys.readouterr().err.splitlines() == [message, message]


def test_crt_check_command(tmp_path, capsys):
    path = write(tmp_path, "sys.txt", "2 mod 4\n0 mod 6\n")
    assert main(["crt-check", path]) == EXIT_YES
    out = capsys.readouterr().out
    assert out.startswith("SOLVABLE")
    assert "p_max=3" in out and "e_max=2" in out
    path = write(tmp_path, "sys2.txt", "1 mod 4\n3 mod 8\n")
    assert main(["crt-check", path, "--verbose"]) == EXIT_NO
    out = capsys.readouterr().out
    assert out.startswith("UNSOLVABLE")
    path = write(tmp_path, "sys3.txt", "3 mod 4\n7 mod 12\n")
    assert main(["crt-check", path, "--verbose"]) == EXIT_YES
    assert capsys.readouterr().out == (
        "SOLVABLE\n"
        "p_max=4 e_max=1 bit_ops=149\n"
        "  3 mod 4^1: 13 bit ops\n"
        "  3 mod 4^1: 5 bit ops\n"
        "  1 mod 3^1: 7 bit ops\n"
    )


def test_crt_check_big_prime_in_subprocess(tmp_path):
    # a 61-bit prime modulus is answered at once, not factored by trial division
    path = write(tmp_path, "sys.txt", "0 mod 2305843009213693951\n")
    src = os.path.dirname(os.path.dirname(cyclorbit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys; from cyclorbit.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, "crt-check", path], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == EXIT_YES
    assert done.stdout.splitlines()[0] == "SOLVABLE"


def test_stirling_command(capsys):
    assert main(["stirling", "--max-n", "25"]) == EXIT_YES
    out = capsys.readouterr().out
    assert out.startswith("OK")
    assert "125" in out  # 5 identities x 25 values


def test_stirling_ratios(capsys):
    assert main(["stirling", "--max-n", "10", "--ratios", "12"]) == EXIT_YES
    out = capsys.readouterr().out
    assert "E[K^3]/ln(n)^3" in out


def test_bench_primorial_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", "--mode", "primorial", "--max-i", "4",
                 "--repeats", "1", "--seed", "9", "--csv", str(csv_path)]) == EXIT_YES
    out = capsys.readouterr().out
    assert "ops/bit band" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("label,")
    assert len(lines) == 5
    # a path that cannot be written is an input error, not a NO
    assert main(["bench", "--mode", "primorial", "--max-i", "2",
                 "--repeats", "1", "--csv", str(tmp_path)]) == EXIT_INPUT
    assert f"error: cannot write {tmp_path}" in capsys.readouterr().err


def test_bench_average_csv(tmp_path, capsys):
    csv_path = tmp_path / "avg.csv"
    assert main(["bench", "--mode", "average", "--n", "20", "--trials", "30",
                 "--seed", "4", "--csv", str(csv_path)]) == EXIT_YES
    assert "mean_cycles=" in capsys.readouterr().out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,trial,k_cycles,word_ops,max_bits"
    assert len(lines) == 31
    assert main(["bench", "--mode", "average", "--n", "5", "--trials", "2",
                 "--csv", str(tmp_path)]) == EXIT_INPUT
    assert f"error: cannot write {tmp_path}" in capsys.readouterr().err


def test_fuzzed_instances_never_crash(tmp_path, capsys):
    rng = random.Random(20260816)
    # the last six probe parse_permutation's json read: each must end in a
    # ValueError or in the scanner's reading, never in another exception
    pieces = ["n", "alphabet", "perm", "v", "w", "(", ")", ",", "1", "2", "0",
              "01", "mod", "#", " ", "\n", "(1,2)", "abc", "-3", "9" * 40,
              ")(", "(01,2)", "[", "]", "1e3", "9" * 5000]
    solved = {}  # path -> exit code of solve, for the oracle to match
    for trial in range(300):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 40)))
        path = write(tmp_path, f"fuzz_{trial}.txt", text)
        code = main(["solve", path])
        assert code in (EXIT_YES, EXIT_NO, EXIT_INPUT)
        solved[path] = code
        capsys.readouterr()
    # perm lines in an otherwise valid instance, so that they reach
    # parse_permutation; most are only digits, parentheses and commas
    # between ( and ), which it reads with json
    notation = [p for p in pieces if not p.strip("(),0123456789")]
    for trial in range(300):
        perm = "".join(rng.choice(notation if rng.random() < 0.9 else pieces)
                       for _ in range(rng.randrange(0, 10)))
        text = f"n 12\nalphabet 01\nperm ({perm})\nv {'01' * 6}\nw {'10' * 6}\n"
        path = write(tmp_path, f"fuzz_perm_{trial}.txt", text)
        code = main(["solve", path])
        assert code in (EXIT_YES, EXIT_NO, EXIT_INPUT)
        solved[path] = code
        capsys.readouterr()
    # the oracle reads the same texts: it refuses with its own code or agrees
    for path, code in solved.items():
        assert main(["oracle", path]) in (code, EXIT_BOUND)
        capsys.readouterr()
    # valid instances, so that the oracle answers as well as refuses: w is
    # g^r v, or v with one symbol flipped (never in the orbit); about one
    # in nine permutations of degree 40 has order past the bound of 1000
    oracle_codes = set()
    for trial in range(100):
        n = 40 if trial % 2 else rng.randrange(1, 41)
        images = list(range(n))
        rng.shuffle(images)
        g = Permutation(n, [[j + 1 for j in c] for c in cycles_of_mapping(images)])
        v = "".join(rng.choice("01") for _ in range(n))
        if rng.random() < 0.5:
            w = apply_power(g, rng.randrange(1000), v)
        else:
            i = rng.randrange(n)
            w = v[:i] + ("1" if v[i] == "0" else "0") + v[i + 1:]
        text = f"n {n}\nalphabet 01\nperm {format_permutation(g)}\nv {v}\nw {w}\n"
        path = write(tmp_path, f"valid_{trial}.txt", text)
        code = main(["solve", path])
        assert code in (EXIT_YES, EXIT_NO)
        oracle_code = main(["oracle", "--bound", "1000", path])
        assert oracle_code in (code, EXIT_BOUND)
        oracle_codes.add(oracle_code)
        capsys.readouterr()
    assert oracle_codes == {EXIT_YES, EXIT_NO, EXIT_BOUND}
    for trial in range(100):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 30)))
        path = write(tmp_path, f"fuzz_sys_{trial}.txt", text)
        code = main(["congruence", path])
        assert code in (EXIT_YES, EXIT_NO, EXIT_INPUT)
        capsys.readouterr()
    # crt-check on lines of the same pieces, most of them 'a mod b' over the
    # numeric pieces so that big moduli get through the parser; a 61-bit
    # prime modulus must not stall it
    pieces.append(str(2**61 - 1))
    numbers = [p for p in pieces if p.isdigit() and len(p) <= 40]  # within int()'s digit limit
    for trial in range(100):
        lines = []
        for _ in range(rng.randrange(0, 8)):
            if rng.random() < 0.9:
                a, b = sorted(rng.sample(numbers, 2), key=int)
                lines.append(f"{a} mod {b}")
            else:
                lines.append(rng.choice(pieces))
        path = write(tmp_path, f"fuzz_crt_{trial}.txt", "\n".join(lines))
        code = main(["crt-check", path])
        assert code in (EXIT_YES, EXIT_NO, EXIT_INPUT)
        assert main(["congruence", path]) == code
        capsys.readouterr()
