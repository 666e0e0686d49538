"""CLI contract tests: frozen example outputs, exit codes, format and
determinism guarantees."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import tjl.cli as cli
from oracles import ref_orthonormality
from tjl.adelic import FactorizationError
from tjl.cli import run, main
from tjl.cyclotomic import Cyc, NotRationalError, OrderMismatchError
from tjl.metacyclic import character_table, gamma, table_symmetries
from tjl.quaternion import NotInvertibleError, ReductionError
from tjl.tame import TameParamError


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_irreps_census_examples(capsys):
    d = invoke_json(capsys, "irreps", "--q", "3", "--n", "2", "--N", "1")
    assert d["irrep_count"] == 7
    assert d["dims"] == [1, 1, 1, 1, 2, 2, 2]
    assert d["square_sum"] == 16 == d["group_order"]
    assert d["class_count"] == 7
    assert d["orthonormal"] is True
    assert d["schema_version"] == "1"

    d = invoke_json(capsys, "irreps", "--q", "2", "--n", "2", "--N", "1")
    assert d["irrep_count"] == 3
    assert d["dims"] == [1, 1, 2]

    d = invoke_json(capsys, "irreps", "--q", "2", "--n", "1", "--N", "1")
    assert d["irrep_count"] == 1
    assert d["dims"] == [1]


def test_irreps_character_table_shape(capsys):
    d = invoke_json(capsys, "irreps", "--q", "2", "--n", "2", "--N", "1")
    table = d["character_table"]
    assert len(table["rows"]) == 3
    assert sorted(table["class_sizes"]) == [1, 2, 3]
    assert len(table["rows"][0]) == 3
    # restriction support equals the defining orbit
    supports = [m["support"] for m in d["restriction_multiplicities"]]
    assert supports == [[0], [0], [1, 2]]


def test_orbits(capsys):
    d = invoke_json(capsys, "orbits", "--q", "3", "--n", "2")
    assert d["orbits"] == [[0], [1, 3], [2, 6], [4], [5, 7]]
    assert d["regular_count"] == 3
    assert d["modulus"] == 8


def test_tame_examples(capsys):
    d = invoke_json(capsys, "tame", "--q", "3", "--n", "2")
    assert len(d["parameters"]) == 3
    assert [p["r_sum"] for p in d["parameters"]] == [2, 2, 2]
    assert d["all_sums_match"] is True

    d = invoke_json(capsys, "tame", "--q", "2", "--n", "3")
    assert len(d["parameters"]) == 2
    assert [p["r_sum"] for p in d["parameters"]] == [3, 3]

    d = invoke_json(capsys, "tame", "--q", "2", "--n", "1")
    assert len(d["parameters"]) == 1
    assert d["parameters"][0]["r_sum"] == 1


def test_brandt_json(capsys):
    d = invoke_json(capsys, "brandt", "--q", "3", "--place", "t+2")
    assert d["coset_count"] == 4
    assert len(d["matrix"]) == 16
    assert all(sum(row) == 4 for row in d["matrix"])
    assert all(v >= 0 for row in d["matrix"] for v in row)


def test_brandt_place_is_read_as_verify_prints_it(capsys):
    # t+4 over GF(9): the 4 is the element of index 4, not 4 mod 3
    d = invoke_json(capsys, "brandt", "--q", "9", "--place", "t+4")
    assert d["place"] == "t+4"
    code, out, err = invoke(capsys, "brandt", "--q", "3", "--place", "t+5")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "usage"


def test_brandt_tsv(capsys):
    code, out, err = invoke(capsys, "brandt", "--q", "3",
                            "--place", "t^2+1", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert any("schema_version=1" in h for h in header)
    assert any("place=t^2+1" in h for h in header)
    mat = [[int(v) for v in ln.split("\t")] for ln in rows]
    assert len(mat) == 16 and all(len(r) == 16 for r in mat)
    assert all(sum(r) == 10 for r in mat)


def test_brandt_matches_library(capsys):
    from tjl.adelic import hecke_matrix
    from tjl.quaternion import AlgebraParams
    from tjl.funcfield import parse_poly, gf

    d = invoke_json(capsys, "brandt", "--q", "3", "--place", "t+1")
    alg = AlgebraParams(3)
    T = hecke_matrix(alg, parse_poly(gf(3), "t+1"))
    assert d["matrix"] == [list(row) for row in T]


@pytest.mark.parametrize("argv, digest", [
    ("brandt --q 5 --place t^2+2 --format tsv", "2c6f84358b369062"),
    ("brandt --q 9 --place t+1", "4e72037ac50d016b"),
    ("brandt --q 3 --place t^2+1 --N 2", "952eb5eefb9fd5db"),
], ids=["q5-tsv", "q9-json", "q3-level2"])
def test_brandt_golden_bytes(capsys, argv, digest):
    # the sha256 prefixes pin the bytes brandt printed when its matrices
    # were dense arrays; the int rows must print the same
    code, out, err = invoke(capsys, *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_verify_trivial_sigma(capsys):
    d = invoke_json(capsys, "verify", "--q", "3", "--N", "1",
                    "--sigma", "trivial")
    assert d["all_claims_ok"] is True
    r = d["sigma_reports"][0]
    assert r["sigma"] == {"orbit": [0], "s": 0, "dim": 1}
    assert r["infinity_dim_sum"] == 1 == r["dim"]
    (block,) = r["blocks"]
    at = {e["place"]: e["value"]["coeffs"][0]
          for e in block["eigenvalues"]}
    # q + 1 at degree one, q^2 + 1 at degree two
    assert at["t+2"] == 4 and at["t+1"] == 4
    assert at["t^2+1"] == 10


def test_verify_all_sigmas(capsys):
    d = invoke_json(capsys, "verify", "--q", "3", "--N", "1")
    assert len(d["sigma_reports"]) == 7
    assert d["all_claims_ok"] is True
    by_label = {(tuple(r["sigma"]["orbit"]), r["sigma"]["s"]): r
                for r in d["sigma_reports"]}
    assert by_label[((1, 3), 0)]["blocks"][0]["infinity_orbit"] == [5, 7]
    assert by_label[((5, 7), 0)]["blocks"][0]["infinity_orbit"] == [1, 3]
    assert by_label[((2, 6), 0)]["blocks"][0]["infinity_orbit"] == [2, 6]
    assert d["round_trips"]["count"] == 5
    for u in d["witness_uniqueness"]:
        assert u["witnesses"] == u["cosets"]


def test_basis_lines(capsys):
    d = invoke_json(capsys, "basis", "--q", "3", "--sigma", "1:0")
    assert d["sigma"]["orbit"] == [1, 3]
    assert sorted(l["chi"] for l in d["lines"]) == [5, 7]
    assert all(l["a"] == 0 for l in d["lines"])
    assert len(d["lines"]) == d["dim"] == 2


USAGE_ERRORS = (
    "verify --q 2 --N 1",
    "brandt --q 3 --place t",
    "brandt --q 3 --place t+t",
    "brandt --q 3 --place t^",
    "brandt --q 3 --format xml --place t+1",
    "irreps --q 6 --n 2",
    "irreps --q 3 --n 5",
    "irreps --q 3 --format json",
    "tame --q 3 --n 2 --format tsv",
    "bogus",
    "verify",
    "verify --q x",
    "verify --q 3 --N 0",
    "verify --q 3 --sigma",
    "verify --q 3 --sigma x:y",
    # c:s takes two parts at most
    "basis --q 3 --sigma 1:0:junk",
)


def test_usage_errors_exit_2(capsys):
    # argparse's own errors too: exit 2, nothing on stdout and one JSON
    # line on stderr, never argparse's usage text
    for argv in USAGE_ERRORS:
        code, out, err = invoke(capsys, *argv.split())
        assert (code, out) == (2, ""), argv
        lines = err.splitlines()
        assert len(lines) == 1, argv
        payload = json.loads(lines[0])
        assert payload["error"] == "usage" and payload["message"], argv


def test_resource_cap_exit_3(capsys):
    code, out, err = invoke(capsys, "irreps", "--q", "9", "--n", "4")
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "resource"
    assert "hint" in payload


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "orbits", "--q", "3", "--n", "2",
                          "--output", str(path))
    assert code == 0 and out == ""
    d = json.loads(path.read_text())
    assert d["modulus"] == 8
    # canonical serialization: sorted keys, compact separators
    assert path.read_text() == json.dumps(
        d, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("argv, target", [
    (("orbits", "--q", "3", "--n", "2"), "."),
    (("brandt", "--q", "3", "--place", "t+1"), os.path.join("missing", "x")),
], ids=["directory", "missing-parent"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, target):
    # a directory, or a path whose parent does not exist: exit 2 with one
    # JSON line on stderr, not a traceback and not the exit 1 of a false claim
    code, out, err = invoke(capsys, *argv, "--output", str(tmp_path / target))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "usage"
    assert payload["message"]


def test_main_raises_systemexit():
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--q", "3", "--n", "2", "--output", os.devnull])
    assert exc.value.code == 0


def test_thread_count_does_not_change_bytes(tmp_path):
    outs = []
    for threads in ("1", "3"):
        env = dict(os.environ, TJL_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "tjl.cli", "verify", "--q", "3",
             "--N", "1"],
            capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]

    env = dict(os.environ, TJL_THREADS="banana")
    proc = subprocess.run(
        [sys.executable, "-m", "tjl.cli", "orbits", "--q", "3", "--n", "2"],
        capture_output=True, env=env)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [("verify", "--q", "3"),
                                  ("basis", "--q", "3", "--sigma", "1:0"),
                                  ("irreps", "--q", "3"),
                                  ("tame", "--q", "3", "--n", "2")])
def test_python_O_does_not_change_bytes(argv):
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "tjl.cli", *argv],
                              capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("argv", [("verify", "--q", "3"),
                                  ("irreps", "--q", "4", "--n", "2", "--N", "2")])
def test_hash_seed_does_not_change_bytes(argv):
    # records hash as their field tuples, so set and dict orders may follow
    # the string hash seed; no output may
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "tjl.cli", *argv],
                              capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_reused_parser_gives_the_bytes_of_fresh_processes(capsys):
    # run() keeps one parser per process: a usage error that argparse
    # itself reports must leave nothing behind for the calls after it
    runs = [["verify", "--q", "three"],
            ["orbits", "--q", "3", "--n", "2"],
            ["verify", "--q", "3", "--degree-bound", "1"]]
    for argv in runs:
        code, out, err = invoke(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "tjl.cli", *argv],
                               capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr)
    assert cli._PARSER is not None


# Commands that share the process caches: the witness scans and their split
# models with every memo on them (adelic._SCANS), the norm tables of the
# join, the central Hecke shifts, the root sums of the census and the
# quaternion basis products.  One command exceeds its search bound,
# so a failed run is interleaved too.
CALL_ORDER_COMMANDS = (
    "verify --q 3 --degree-bound 1",
    "verify --q 3 --depth-bound 3 --round-trips 5",
    "verify --q 5 --degree-bound 1 --depth-bound 1 --round-trips 20 --seed 7",
    "verify --q 3 --N 2 --degree-bound 1",
    "basis --q 3 --sigma 1:0",
    "basis --q 5 --sigma 1:0 --degree-bound 1",
    "brandt --q 3 --place t^2+1",
    "brandt --q 5 --place t+1 --format tsv",
    "brandt --q 5 --place t^2+2 --depth-bound 0",
    "irreps --q 3",
    "irreps --q 4 --n 2 --N 2",
    "tame --q 3 --n 2",
    "orbits --q 5 --n 2",
)


def test_results_do_not_depend_on_call_order_or_cache_state(monkeypatch,
                                                            capsys):
    # three orders in one process, the first from empty caches, each run
    # against a fresh interpreter's exit code, stdout and stderr
    from tjl import adelic, metacyclic, quaternion, spectral

    fresh = {}
    for command in CALL_ORDER_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "tjl.cli", *command.split()],
            capture_output=True, text=True)
        fresh[command] = (proc.returncode, proc.stdout, proc.stderr)
    assert {code for code, _, _ in fresh.values()} == {0, 3}
    for module, cache in ((adelic, "_SCANS"), (adelic, "_NORM_TABLES"),
                          (adelic, "_DIVISORS"), (spectral, "_CENTRAL"),
                          (metacyclic, "_ROOT_SUMS"),
                          (metacyclic, "_ROOT_SUPPORT"),
                          (quaternion, "_BASIS_PRODUCTS")):
        monkeypatch.setattr(module, cache, {})
    for seed in (1, 2, 3):
        order = list(CALL_ORDER_COMMANDS)
        random.Random(seed).shuffle(order)
        for command in order:
            assert invoke(capsys, *command.split()) == fresh[command], (
                seed, command)
    assert adelic._SCANS and spectral._CENTRAL and metacyclic._ROOT_SUMS
    assert metacyclic._ROOT_SUPPORT


def _modules_loaded(argv: list[str], modules: list[str]) -> dict:
    """Which of modules a fresh interpreter loads by ``import tjl.cli``
    ("import"), and by that import plus a tjl run with argv ("run"), with
    the run's exit code ("code").  The run writes its report to os.devnull;
    modules loaded before tjl.cli was imported do not count."""
    script = (
        "import json, os, sys\n"
        "before = set(sys.modules)\n"
        f"modules = {modules!r}\n"
        "def loaded():\n"
        "    return [m for m in modules if m in sys.modules and m not in before]\n"
        "from tjl.cli import main\n"
        "after_import = loaded()\n"
        "try:\n"
        f"    main({argv!r} + ['--output', os.devnull])\n"
        "except SystemExit as exc:\n"
        "    print(json.dumps({'import': after_import, 'run': loaded(),\n"
        "                      'code': exc.code}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    "irreps --q 3",
    "orbits --q 3 --n 2",
    "tame --q 3 --n 2",
    "brandt --q 3 --place t+1",
    "brandt --q 3 --place t+1 --format tsv",
    "verify --q 3 --degree-bound 1",
    "basis --q 3 --sigma 1:0",
], ids=["irreps", "orbits", "tame", "brandt-json", "brandt-tsv", "verify",
        "basis"])
def test_commands_run_where_numpy_cannot_be_imported(argv):
    # tjl needs only the standard library: with numpy blocked, every
    # command still runs and exits 0
    script = (
        "import os, sys\n"
        "sys.modules['numpy'] = None\n"
        "from tjl.cli import main\n"
        f"main({argv.split()!r} + ['--output', os.devnull])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_start_up_loads_no_dataclasses_or_inspect():
    # tjl's records are plain slotted classes, so neither the import nor a
    # verify run pays for dataclasses and the inspect, dis and tokenize
    # modules it pulls in
    heavy = ["dataclasses", "inspect", "dis", "tokenize", "typing"]
    got = _modules_loaded(["verify", "--q", "3", "--degree-bound", "1"], heavy)
    assert got == {"import": [], "run": [], "code": 0}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
@pytest.mark.parametrize("argv, message", [
    ("verify --q 3 --depth-bound 0",
     "found 0 of 4 witnesses at t+1 within depth 0"),
    ("brandt --q 3 --place t^2+1 --depth-bound 0",
     "found 0 of 10 witnesses at t^2+1 within depth 0"),
    ("basis --q 5 --sigma 1:0 --depth-bound 0",
     "found 0 of 6 witnesses at t+1 within depth 0"),
    ("verify --q 3 --degree-bound 3 --depth-bound 1 --round-trips 0",
     "found 0 of 28 witnesses at t^3+2t^2+1 within depth 1"),
], ids=["verify", "brandt", "basis", "verify-cubic"])
def test_depth_bound_too_small_exits_3(flags, argv, message):
    # each adelic command checks --depth-bound once per place, in place
    # order, before any other work; the check is no assert, so -O keeps it
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "tjl.cli", *argv.split()],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        '{"error":"resource","hint":"raise --degree-bound/--depth-bound",'
        f'"message":"{message}","schema_version":"1"}}\n')


@pytest.mark.parametrize("error", [NotRationalError, ReductionError,
                                   FactorizationError])
def test_internal_errors_exit_1(monkeypatch, capsys, error):
    # an internal inconsistency is a falsification, not a usage error, and
    # an exception without a message still reports a non-empty one
    def broken(*args):
        raise error()

    monkeypatch.setattr(cli, "character_table", broken)
    code, out, err = invoke(capsys, "irreps", "--q", "3", "--n", "2")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "falsification"
    assert payload["message"] == error.__name__


def test_basis_honours_depth_bound(capsys):
    code, out, err = invoke(capsys, "basis", "--q", "3", "--sigma", "1:0",
                            "--depth-bound", "0")
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "resource"
    assert "within depth 0" in payload["message"]


@pytest.mark.parametrize("flag, value", [("--degree-bound", "0"),
                                         ("--round-trips", "-2")])
def test_bad_bounds_are_usage_errors(capsys, flag, value):
    code, out, err = invoke(capsys, "verify", "--q", "3", flag, value)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage"
    assert flag in payload["message"]


def test_order_mismatch_is_a_falsification(monkeypatch, capsys):
    # an OrderMismatchError is a ValueError, but no argument can cause it
    def mismatched(*args):
        raise OrderMismatchError("orders differ: 8 vs 4")

    monkeypatch.setattr(cli, "character_inner", mismatched)
    code, out, err = invoke(capsys, "irreps", "--q", "3", "--n", "2")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "falsification"
    assert payload["message"] == "orders differ: 8 vs 4"


@pytest.mark.parametrize("error", [ZeroDivisionError, NotInvertibleError,
                                   ValueError, TameParamError, ReductionError,
                                   FactorizationError])
def test_division_by_zero_is_a_falsification(monkeypatch, capsys, error):
    # a failed inverse mod pi^P or of a quaternion, or any ValueError out of
    # the library once the arguments are checked, is an internal
    # inconsistency: one JSON line and exit 1, not a traceback and not the
    # exit 2 of a usage error
    def broken(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli, "hecke_matrix", broken)
    code, out, err = invoke(capsys, "brandt", "--q", "3", "--place", "t+1")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "falsification"
    assert payload["message"] == error.__name__


def test_internal_value_error_exits_1_under_python_O():
    # the verdict is the exception's type, which -O keeps
    script = ("import tjl.cli as cli\n"
              "def broken(*args):\n"
              "    raise ValueError('valuation of zero')\n"
              "cli.hecke_matrix = broken\n"
              "cli.main(['brandt', '--q', '3', '--place', 't+1'])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ('{"error":"falsification","message":'
                           '"valuation of zero","schema_version":"1"}\n')


def _stderr_falsification(err):
    payload = json.loads(err)
    assert payload["error"] == "falsification"
    assert payload["message"]
    return payload["message"]


def test_failed_orthonormality_is_named_on_stderr(monkeypatch, capsys):
    # the report still goes to stdout; stderr names the failed check
    monkeypatch.setattr(cli, "character_inner", lambda *args: Fraction(0))
    code, out, err = invoke(capsys, "irreps", "--q", "3", "--n", "2")
    assert code == 1
    assert json.loads(out)["orthonormal"] is False
    assert "orthonormality" in _stderr_falsification(err)


# each tampering case with the exit code of irreps on its table; a row
# shorter than the class list fails the length check of inner_product, a
# falsification like every other defect of the table
TAMPER_CASES = {"none": 0, "duplicated-row": 1, "altered-degree": 1,
                "altered-value": 1, "rotated-value": 1, "scaled-trivial": 1,
                "dropped-row": 1, "foreign-order": 1, "short-row": 1}


def _tampered_table(case):
    """The character table of Gamma(5, 2, 2) with one defect; row 16 is
    the character of the orbit (7, 11) with s = 0, class 0 is that of the
    identity and class 1 that of (0, 1)."""
    labels, reps, sizes, rows = character_table(gamma(5, 2, 2))
    labels, rows = list(labels), [list(row) for row in rows]
    m = rows[0][0].order
    if case == "duplicated-row":
        labels.insert(17, labels[16])
        rows.insert(17, rows[16])
    elif case == "altered-degree":
        rows[16][0] = rows[16][0] + 1
    elif case == "altered-value":
        rows[16][1] = rows[16][1] + 1
    elif case == "rotated-value":
        rows[16][1] = rows[16][1] * Cyc(m, {1: 1})
    elif case == "scaled-trivial":
        rows[0][-1] = rows[0][-1] * 2
    elif case == "dropped-row":
        del labels[16], rows[16]
    elif case == "foreign-order":
        rows[16][3] = Cyc(2 * m, {1: 1})
    elif case == "short-row":
        del rows[16][-1]
    return tuple(labels), reps, sizes, tuple(map(tuple, rows))


def _irreps_reading(table, pairs):
    """(exit code, stdout, stderr) of irreps --q 5 --n 2 --N 2 reading
    table, with its pair choice replaced by pairs unless that is None."""
    saved = cli.character_table, cli.orthonormality_pairs
    cli.character_table = lambda G: table
    if pairs is not None:
        cli.orthonormality_pairs = pairs
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["irreps", "--q", "5", "--n", "2", "--N", "2"])
    finally:
        cli.character_table, cli.orthonormality_pairs = saved
    return code, out.getvalue(), err.getvalue()


def tamper_outcomes():
    """For each tampering case: irreps' outcome, the outcome of the
    all-pairs loop, and the number of table symmetries kept."""
    G = gamma(5, 2, 2)
    out = {}
    for case in TAMPER_CASES:
        table = _tampered_table(case)
        out[case] = (_irreps_reading(table, None),
                     _irreps_reading(table, ref_orthonormality),
                     len(table_symmetries(G, table[3])))
    return out


def test_tampered_tables_match_the_all_pairs_loop():
    # one pair per symmetry orbit must find what the all-pairs loop finds,
    # byte for byte: the first failing pair, the first non-rational one and
    # the order mismatch.  The checks are exceptions, so -O keeps them
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    script = (f"import json, sys\n"
              f"sys.path.insert(0, {tests_dir!r})\n"
              f"from test_cli import tamper_outcomes\n"
              f"print(json.dumps([sys.flags.optimize, tamper_outcomes()]))\n")
    seen = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        optimize, outcomes = json.loads(proc.stdout)
        assert optimize == len(flags)
        seen.append(outcomes)
    assert seen[0] == seen[1]
    outcomes = seen[0]
    for case, (found, oracle, kept) in outcomes.items():
        assert found == oracle, case
        assert found[0] == TAMPER_CASES[case], case
    # some defects leave symmetries standing, so orbits were compared; a
    # duplicated row makes every row map two-to-one, and a value of another
    # order or a short row leaves nothing to map
    message = json.loads(outcomes["short-row"][0][2])["message"]
    assert message.startswith("mismatched lengths: ")
    kept = {case: outcomes[case][2] for case in TAMPER_CASES}
    assert kept["none"] == 5
    assert (kept["duplicated-row"] == kept["foreign-order"]
            == kept["short-row"] == 0)
    assert any(0 < kept[case] < 5 for case in TAMPER_CASES)


def test_failed_square_sum_is_named_on_stderr(monkeypatch, capsys):
    real = cli.character_table

    def short(G):
        labels, reps, sizes, rows = real(G)
        return labels[:-1], reps, sizes, rows[:-1]

    monkeypatch.setattr(cli, "character_table", short)
    code, out, err = invoke(capsys, "irreps", "--q", "3", "--n", "2")
    assert code == 1
    d = json.loads(out)
    assert d["orthonormal"] is True and d["square_sum"] == 12
    message = _stderr_falsification(err)
    assert "square sum" in message and "census" in message


def test_failed_tame_sums_are_named_on_stderr(monkeypatch, capsys):
    real = cli.tame_report

    def broken(params):
        report = real(params)
        report["parameters"][0]["sum_matches"] = False
        report["all_sums_match"] = False
        return report

    monkeypatch.setattr(cli, "tame_report", broken)
    code, out, err = invoke(capsys, "tame", "--q", "2", "--n", "3")
    assert code == 1
    d = json.loads(out)
    assert d["all_sums_match"] is False
    message = _stderr_falsification(err)
    assert "all_sums_match" in message
    assert json.dumps(d["parameters"][0]["parameter"], sort_keys=True,
                      separators=(",", ":")) in message


def test_failed_claim_is_named_on_stderr(monkeypatch, capsys):
    real = cli.verify_claim

    def broken(*args):
        report = real(*args)
        report.claim_ok = False
        return report

    monkeypatch.setattr(cli, "verify_claim", broken)
    code, out, err = invoke(capsys, "verify", "--q", "3", "--degree-bound",
                            "1", "--sigma", "trivial", "--round-trips", "0")
    assert code == 1
    assert json.loads(out)["all_claims_ok"] is False
    message = _stderr_falsification(err)
    assert "all_claims_ok" in message and '"orbit":[0]' in message


def test_wrong_eigensystem_count_fails_only_its_sigma(monkeypatch, capsys):
    # one extra predicted extension with r = 0 keeps the tame r-sum at n
    from tjl import spectral

    real = spectral.enumerate_A_tame
    monkeypatch.setattr(spectral, "enumerate_A_tame", lambda p, params: (
        real(p, params) + [(None, None, 0)]))
    code, out, err = invoke(capsys, "verify", "--q", "3", "--degree-bound",
                            "1", "--round-trips", "0")
    assert code == 1
    d = json.loads(out)
    assert d["all_claims_ok"] is False
    assert len(d["sigma_reports"]) == 7
    failed = [r["sigma"] for r in d["sigma_reports"] if not r["claim_ok"]]
    assert failed == [r["sigma"] for r in d["sigma_reports"]
                      if r["sigma"]["dim"] == 2]
    assert len(failed) == 3
    message = _stderr_falsification(err)
    assert message == "; ".join(
        "all_claims_ok: the claim fails for sigma "
        + json.dumps(s, sort_keys=True, separators=(",", ":"))
        for s in failed)


def _shifted_tags(self, orbit):
    return tuple((c + 1) % self.M for c in orbit)


def test_irreps_certifies_the_restriction_support(monkeypatch, capsys):
    # shifted basis tags disagree with the character sums
    from tjl.metacyclic import Gamma

    monkeypatch.setattr(Gamma, "orbit_tags", _shifted_tags)
    code, out, err = invoke(capsys, "irreps", "--q", "3", "--n", "2")
    assert code == 1 and out == ""
    assert "basis tags" in _stderr_falsification(err)


def test_irreps_rejects_a_support_off_the_orbit(monkeypatch, capsys):
    # a restriction that misses the last element of each orbit of size > 1
    real = cli.chi_restriction
    monkeypatch.setattr(cli, "chi_restriction", lambda G, lb: {
        c: m for c, m in real(G, lb).items()
        if not (c == lb.orbit[-1] and lb.dim > 1)})
    code, out, err = invoke(capsys, "irreps", "--q", "3", "--n", "2")
    assert code == 1 and out == ""
    assert "not for its orbit" in _stderr_falsification(err)
