"""CLI surface: JSON output shape, exit codes, the probe/selfcheck paths, and the
modules each command loads."""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import groupinv
from groupinv import abelian, ballprobe
from groupinv.cli import COMMANDS, main

SRC = Path(groupinv.__file__).resolve().parents[1]

# runs one command in a fresh interpreter, then prints on stderr three lines:
# the groupinv modules whose code ran (a module registered by LazyLoader and not
# yet read is still an instance of a ModuleType subclass), the loaded modules
# that are neither in the standard library nor groupinv, and the loaded modules
# of the standard library
_FOOTPRINT = """
import sys, types
from groupinv.cli import main
try:
    main(args=sys.argv[1:])
finally:
    print(" ".join(name for name, module in sys.modules.items()
                   if name.startswith("groupinv.") and type(module) is types.ModuleType),
          file=sys.stderr)
    print(" ".join(name for name in sys.modules
                   if name.partition(".")[0] not in sys.stdlib_module_names | {"groupinv"}),
          file=sys.stderr)
    print(" ".join(name for name in sys.modules
                   if name.partition(".")[0] in sys.stdlib_module_names), file=sys.stderr)
"""


def run(*args):
    """One command line run in this process: its exit code, and what it printed
    on stdout (``output``) and on stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args=list(args), prog_name="groupinv")
        except SystemExit as exc:
            exit_code = exc.code
    return SimpleNamespace(exit_code=exit_code, output=stdout.getvalue(),
                           stderr=stderr.getvalue())


def python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


@functools.cache
def bare_modules() -> frozenset[str]:
    """The modules a bare interpreter has loaded when it runs its first line;
    its site packages may load some at start-up."""
    return frozenset(python("-c", "import sys; print(' '.join(sys.modules))").stdout.split())


def footprint(*args, status=0) -> tuple[set[str], set[str], set[str]]:
    """What one command line, exiting with STATUS, loads in a fresh interpreter:
    the groupinv modules whose code ran, the modules outside the standard
    library and groupinv, and the standard-library modules that a bare
    interpreter does not load."""
    proc = python("-c", _FOOTPRINT, *args)
    assert proc.returncode == status, proc.stderr
    ran, foreign, stdlib = proc.stderr.splitlines()[-3:]
    return ({name.removeprefix("groupinv.") for name in ran.split()}, set(foreign.split()),
            set(stdlib.split()) - bare_modules())


_Z4 = json.dumps([[(i + j) % 4 for j in range(4)] for i in range(4)])
# one command line of each kind
COMMAND_LINES = (("--version",), ("rinf", "-g", "BS(1,2) x F(3)"),
                 ("invariants", "-g", "BS(1,2) x F(3)"),
                 ("reidemeister", "--matrix", "[[-1]]", "--torsion", "[2]"),
                 ("reidemeister", "--table", _Z4, "--automorphism", "[0, 3, 2, 1]"),
                 ("probe", "--atom", "BS(1,2)", "--dir", "1", "--radius", "4"))


def loaded_modules(*args, status=0) -> set[str]:
    return footprint(*args, status=status)[0]


def test_rinf_golden():
    result = run("rinf", "-g", "BS(1,2) x F(3)")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["conclusion"] == "RInfinity"
    assert data["trace"][-1]["rule"] == "ThmMain1"
    assert data["version"]


def test_reidemeister_golden():
    result = run("reidemeister", "--matrix", "[[-1]]")
    assert json.loads(result.output)["reidemeister"] == 2
    result = run("reidemeister", "--matrix", "[[1]]")
    assert json.loads(result.output)["reidemeister"] == "infinity"
    result = run("reidemeister", "--matrix", "[[-1]]", "--torsion", "[2]")
    assert json.loads(result.output)["reidemeister"] == 4


def test_reidemeister_with_torsion_runs_no_smith_form(monkeypatch):
    # the Smith form's entries grew past 30 s on this matrix with torsion [2]
    def refuse(*args):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(abelian, "smith_normal_form", refuse)
    p = [[19293, 4795, -7279, 1113], [10445, 2597, -3940, 601],
         [-14816, -3682, 5590, -855], [2053, 512, -774, 117]]
    result = run("reidemeister", "--matrix", json.dumps(p), "--torsion", "[2]",
                 "--torsion-map", "[[1]]")
    assert result.exit_code == 0
    assert json.loads(result.output)["reidemeister"] == 124002


def test_reidemeister_table_path():
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    result = run("reidemeister", "--table", json.dumps(z4),
                 "--automorphism", "[0, 3, 2, 1]")
    data = json.loads(result.output)
    assert data["reidemeister"] == 2
    assert data["representatives"] == [0, 1]
    assert run("reidemeister", "--table", json.dumps(z4), "--matrix", "[[1]]").exit_code == 1
    assert run("reidemeister").exit_code == 1


def test_invariants_golden():
    result = run("invariants", "-g", "F(2) x Z")
    data = json.loads(result.output)
    assert data["hom_rank"] == 3
    assert data["omega_cardinality"] == "2"
    assert data["o_class"] == "O2"
    points = data["omega"]["atoms"][0][1]["points"]
    assert sorted(points) == [[-1], [1]]


def test_invariants_unknown_level():
    result = run("invariants", "-g", "L(2)", "-n", "2")
    data = json.loads(result.output)
    assert data["omega"] is None and data["o_class"] == "unknown"


def test_probe_json_and_csv():
    result = run("probe", "--atom", "BS(1,2)", "--dir", "1", "--radius", "6")
    data = json.loads(result.output)
    assert data["evidence"] == "SupportsMembership"
    result = run("probe", "--atom", "BS(1,2)", "--dir", "-1", "--radius", "6",
                 "--mode", "cone")
    assert json.loads(result.output)["evidence"] == "SupportsNonMembership"
    result = run("probe", "--atom", "Z^2", "--dir", "1,1", "--radius", "4",
                 "--grid", "0,1/2,1", "--format", "csv")
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("s,vertices")


def test_probe_mode_literals_match_ballprobe():
    # the command line spells the modes out so that building it does not load
    # ballprobe; they must stay the names ballprobe answers to
    mode = COMMANDS["probe"].options["mode"]
    assert list(mode.type.choices) == [ballprobe.HALF_SPACE, ballprobe.TRUNCATED_CONE]
    assert mode.default == ballprobe.HALF_SPACE


def test_probe_takes_directions_that_start_with_a_minus_sign():
    # a value such as -1,0 looks like an option; the command line must still
    # read it as the value of --dir
    for atom, direction, evidence in (("Z^2", "-1,0", "SupportsMembership"),
                                      ("F(2)", "-1,0", "SupportsNonMembership"),
                                      ("Z^2", "-1,-2", "SupportsMembership")):
        result = run("probe", "--atom", atom, "--dir", direction, "--radius", "4")
        assert result.exit_code == 0, (atom, direction)
        data = json.loads(result.output)
        assert data["direction"] == [int(c) for c in direction.split(",")]
        assert data["evidence"] == evidence, (atom, direction)


def test_each_command_loads_only_the_modules_it_calls():
    for args in (("reidemeister", "--matrix", "[[-1]]", "--torsion", "[2]"),
                 ("reidemeister", "--table", _Z4, "--automorphism", "[0, 3, 2, 1]")):
        assert loaded_modules(*args) == {"cli", "abelian", "linalg", "unionfind"}, args
    for mode in ("halfspace", "cone"):
        loaded = loaded_modules("probe", "--atom", "BS(1,2)", "--dir", "1", "--radius", "4",
                                "--mode", mode)
        assert "ballprobe" in loaded
        assert not loaded & {"rinf", "catalog", "cones", "selfcheck"}, mode
    # the closed-form cone and the block union of the obstruction sets, the
    # level-two "unknown" class, and the cone-dimension cap's error: none of
    # them runs cones
    queries = [((command, "-g", text), 0) for command in ("rinf", "invariants")
               for text in ("BS(1,2) x F(3)", "T(5) x Z")]
    queries += [(("invariants", "-n", "2", "-g", "BS(1,2) x Z"), 0),
                (("rinf", "-g", "T(10000000)"), 1)]
    for args, status in queries:
        loaded = loaded_modules(*args, status=status)
        assert "catalog" in loaded
        assert not loaded & {"ballprobe", "selfcheck", "abelian", "unionfind", "cones"}, args
    # the oracles that no other command runs are defined in selfcheck alone,
    # and the deleted key views and fixed-subgroup test nowhere
    oracles = {"ScanRow", "catalog_membership", "probe_direction_scan",
               "abelian_group_from_matrix", "CentralExtensionReport",
               "verify_central_extension", "cyclic_table", "direct_product_table",
               "center", "mat_sub"}
    deleted = {"fixed_subgroup_trivial", "_ColumnView", "_FreeWords", "_BSNormalForms"}
    for info in pkgutil.iter_modules(groupinv.__path__):
        module = importlib.import_module("groupinv." + info.name)
        defined = {name for name, value in vars(module).items()
                   if getattr(value, "__module__", module.__name__) == module.__name__}
        expected = oracles if info.name == "selfcheck" else set()
        assert defined & (oracles | deleted) == expected, info.name
    assert not hasattr(ballprobe.BallGraph, "keys")
    assert not hasattr(abelian.FGAbelianAutomorphism, "full_matrix")
    assert not hasattr(abelian.FiniteGroupTable, "center")


def test_commands_load_nothing_beyond_the_standard_library():
    # measured against a bare interpreter, whose site packages may load modules at start-up
    for args in COMMAND_LINES:
        assert footprint(*args)[1] <= bare_modules(), args


def test_start_up_loads_no_dataclasses_and_fractions_only_for_probe():
    # dataclasses brings inspect, ast, dis and tokenize; fractions brings decimal
    for args in COMMAND_LINES:
        stdlib = footprint(*args)[2]
        assert not stdlib & {"dataclasses", "inspect"}, (args, stdlib)
        assert ("fractions" in stdlib) == (args[0] == "probe"), (args, stdlib)


def test_run_as_a_module_without_a_runtime_warning():
    # runpy warns when the module it runs is in sys.modules already, so the
    # package must not register cli among its lazily loaded modules
    proc = python("-W", "error::RuntimeWarning", "-m", "groupinv.cli", "rinf", "-g", "Z")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["group"] == "Z"


def test_computation_errors_are_json_exit_1():
    result = run("rinf", "-g", "BS(2,3)")
    assert result.exit_code == 1
    assert "error" in json.loads(result.output)
    result = run("probe", "--atom", "T(3)", "--dir", "1,0,0")
    assert result.exit_code == 1
    assert "error" in json.loads(result.output)
    result = run("reidemeister", "--matrix", "[[2]]")
    assert result.exit_code == 1


def test_probe_names_the_right_reason_for_unsupported_atoms():
    for atom in ("Z^0", "L(2)", "Zmod(3)", "B(3)", "T(3)", "Thompson"):
        result = run("probe", "--atom", atom, "--dir", "1")
        assert result.exit_code == 1, atom
        data = json.loads(result.output)
        assert set(data) == {"version", "error"}, atom
        assert data["error"].startswith("no implemented normal form for %s " % atom), atom
        thompson = atom in ("T(3)", "Thompson")
        assert ("presented infinitely" in data["error"]) == thompson, data["error"]


def timed(*args):
    start = time.perf_counter()
    result = run(*args)
    return result, time.perf_counter() - start


def test_cone_cap_is_checked_before_the_cone_is_built():
    for command in ("rinf", "invariants"):
        result, seconds = timed(command, "-g", "T(10000000)")
        assert result.exit_code == 1, command
        assert json.loads(result.output) == {
            "version": groupinv.__version__,
            "error": "cone dimension 10000000 exceeds cap 8"}, command
        assert seconds < 1, (command, seconds)


def test_ball_work_cap_is_checked_before_the_ball_is_built():
    # 180,601 vertices fit the order cap, but each has 300 generators
    result, seconds = timed("probe", "--atom", "Z^300", "--dir", "1", "--radius", "2")
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "version": groupinv.__version__,
        "error": "the radius-2 ball of Z^300 would have 180601 vertices times 300 "
                 "generators, more than %d" % ballprobe.MAX_BALL_WORK}
    assert seconds < 1, seconds


def test_direction_length_is_checked_before_the_ball_is_built(monkeypatch):
    # the ball of F(2) at radius 12 has 1,062,881 vertices; a direction of the
    # wrong length is refused without it, after the checks the probe met first
    def refuse(atom, radius):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(ballprobe, "enumerate_ball", refuse)
    probe = ("probe", "--atom", "F(2)", "--dir", "1", "--radius", "12")
    for args, error in (
            (probe, "direction has 1 coordinates, ball heights have 2"),
            (("probe", "--atom", "Z^3", "--dir", "1,0", "--radius", "9"),
             "direction has 2 coordinates, ball heights have 3"),
            (("probe", "--atom", "BS(1,3)", "--dir", "1,0", "--radius", "12"),
             "direction has 2 coordinates, ball heights have 1"),
            (("probe", "--atom", "Klein", "--dir", "0,1", "--radius", "12"),
             "direction has 2 coordinates, ball heights have 1"),
            # the caps, the scales and the configuration still come first
            (("probe", "--atom", "F(3)", "--dir", "1", "--radius", "12"),
             "the radius-12 ball of F(3) would have more than %d vertices"
             % ballprobe.MAX_BALL_ORDER),
            ((*probe, "--grid", "0,1/0"), "zero denominator in '1/0'"),
            ((*probe, "--grid", "1,0"), "grid scales must be non-negative and non-decreasing"),
            ((*probe, "--lambda-max", "-1"), "the retreat budget must be non-negative")):
        result, seconds = timed(*args)
        assert result.exit_code == 1, args
        assert json.loads(result.output) == {"version": groupinv.__version__,
                                             "error": error}, args
        assert seconds < 1, (args, seconds)


def test_scales_that_could_never_be_printed_are_refused_at_once():
    digits = sys.get_int_max_str_digits()
    for option, value in (("--grid", "0,1e1000000"), ("--lambda-max", "1e1000000000"),
                          ("--grid", "1e-%d" % digits), ("--lambda-max", "1e%d" % digits)):
        result, seconds = timed("probe", "--atom", "Z", "--dir", "1", "--radius", "4",
                                option, value)
        assert result.exit_code == 1, value
        data = json.loads(result.output)
        assert set(data) == {"version", "error"}, value
        assert "more than %d digits" % digits in data["error"], value
        assert seconds < 1, (value, seconds)


def test_printable_scales_are_accepted():
    result = run("probe", "--atom", "Z", "--dir", "1", "--radius", "4",
                 "--grid", "0,1e-3,1/2")
    assert result.exit_code == 0
    assert [row["s"] for row in json.loads(result.output)["rows"]] == ["0", "1/1000", "1/2"]
    digits = sys.get_int_max_str_digits()
    result = run("probe", "--atom", "Z", "--dir", "1", "--radius", "4",
                 "--grid", "0e99999,1e%d" % (digits - 1), "--lambda-max", "1e-%d" % (digits - 1))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert [row["s"] for row in data["rows"]] == ["0", "1" + "0" * (digits - 1)]
    assert data["lambda_max"] == "1/1" + "0" * (digits - 1)


def test_usage_errors_exit_2():
    assert run("rinf").exit_code == 2
    assert run("nonsense").exit_code == 2
    assert run("probe", "--atom", "Z^2").exit_code == 2
    probe = ("probe", "--atom", "Z", "--dir", "1")
    for args in ((*probe, "--radius", "x"), ("invariants", "-g", "Z", "-n", "two"),
                 (*probe, "--mode", "diagonal"), (*probe, "--format", "xml"),
                 ("rinf", "-g", "Z", "--bogus", "1"), ("rinf", "-g", "Z", "extra"), (),
                 ("probe", "--atom", "Z", "--dir"),
                 # getopt alone would take a unique prefix for the whole name
                 (*probe, "--rad", "5"), ("--vers",)):
        result = run(*args)
        assert result.exit_code == 2, args
        assert result.output == "", args
        assert result.stderr.startswith("Usage: groupinv "), args
        assert "Traceback" not in result.stderr, args


def test_version_and_help():
    proc = python("-m", "groupinv.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout == "python -m groupinv.cli, version %s\n" % groupinv.__version__
    for args in (("--help",), ("probe", "--help")):
        result = run(*args)
        assert result.exit_code == 0, args
        assert result.output.startswith("Usage: groupinv "), args
    assert "--lambda-max TEXT" in run("probe", "--help").output


def test_main_runs_a_command_line_under_the_given_program_name(capsys):
    # benchmark/traced_cli.py runs each command through this call
    main(args=["rinf", "-g", "Z"], prog_name="groupinv")
    assert json.loads(capsys.readouterr().out)["group"] == "Z"
    main(args=["--version"], prog_name="groupinv")
    assert capsys.readouterr().out == "groupinv, version %s\n" % groupinv.__version__
    with pytest.raises(SystemExit) as exit_:
        main(args=["rinf"], prog_name="groupinv")
    assert exit_.value.code == 2
    assert capsys.readouterr().err.startswith("Usage: groupinv rinf [OPTIONS]\n")


def test_probe_and_parser_failures_print_one_json_document():
    cases = [
        ("probe", "--atom", "Z^2", "--dir", "1,0", "--lambda-max", "1/0"),
        ("probe", "--atom", "Z^2", "--dir", "1,0", "--grid", "0,1/0"),
        ("probe", "--atom", "Z^2", "--dir", "1,0", "--lambda-max", "-1"),
        ("probe", "--atom", "F(3)", "--dir", "1,0,0", "--radius", "12"),
        ("rinf", "-g", "(" * 400 + "Z" + ")" * 400),
    ]
    for args in cases:
        result = run(*args)
        assert result.exit_code == 1, args
        data = json.loads(result.output)
        assert set(data) == {"version", "error"}, args
    assert "position" in json.loads(run(*cases[-1]).output)["error"]
    assert run("rinf", "-g", "(" * 100 + "Z" + ")" * 100).exit_code == 0


def test_malformed_tables_print_one_json_document():
    cases = [
        ("--table", "5"),
        ("--table", '[[0,1],[1,"a"]]'),
        ("--table", "[[0.0,1.0],[1.0,0.0]]"),
        ("--table", "[5,6]"),
        ("--table", "[[0,1],[1,0]]", "--automorphism", "[0.0, 1]"),
        ("--table", "[[0,1],[1,0]]", "--automorphism", "5"),
        ("--matrix", "5"),
        ("--matrix", "null"),
        ("--matrix", "{}"),
        ("--matrix", "[1]"),
        ("--matrix", "[[1.5]]"),
        ("--matrix", "[[true]]"),
        ("--matrix", '[["1"]]'),
        ("--matrix", "[[1]]", "--torsion", "5"),
        ("--matrix", "[[1]]", "--torsion", "[2.0]"),
        ("--matrix", "[[1]]", "--torsion", "[2]", "--mixing", "7"),
        ("--matrix", "[[1]]", "--torsion", "[2]", "--torsion-map", "3"),
    ]
    for args in cases:
        result = run("reidemeister", *args)
        assert result.exit_code == 1, args
        data = json.loads(result.output)
        assert set(data) == {"version", "error"}, args
    # rank zero: the trivial group has one twisted class
    assert json.loads(run("reidemeister", "--matrix", "[]").output)["reidemeister"] == 1
