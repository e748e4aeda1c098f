"""Command-line front end: invariants, verdicts, Reidemeister numbers, the
Cayley-ball probe, and the selfcheck replay of the golden examples.

Every successful invocation prints one JSON document to standard output with
the package version embedded; computation failures print a JSON error object
and exit 1; usage errors print a usage line and the error on standard error and
exit 2.  Output is deterministic.

The command line is one table, ``COMMANDS``, read with the standard library's
``getopt``, which takes the word after an option as its value whatever that
word starts with, so ``probe --dir -1,0`` works.  ``--help`` and
``--version`` are generated from the same table.
"""

from __future__ import annotations

import getopt
import json
import os
import sys

from . import __version__
from . import abelian, ballprobe, catalog, spheres
from . import expressions as ex
from . import rinf as rinf_rules  # the `rinf` command below takes the plain name


def _emit(payload: dict) -> None:
    payload = {"version": __version__, **payload}
    print(json.dumps(payload, indent=2, sort_keys=False))


def _fail(message: str) -> None:
    print(json.dumps({"version": __version__, "error": message}))
    sys.exit(1)


def invariants(text: str, level: int):
    """Hom-rank, obstruction set, and surviving directions with provenance."""
    expr = ex.parse_group_expr(text)
    inv = catalog.lookup_invariants(expr)
    _emit({"group": expr.label(), **inv.summary(level)})


def rinf(text: str):
    """R-infinity verdict with its derivation trace."""
    expr = ex.parse_group_expr(text)
    verdict = rinf_rules.decide(expr)
    _emit({"group": expr.label(), **verdict.to_json_dict()})


def reidemeister(matrix: str | None, torsion: str | None, torsion_map: str | None,
                 mixing: str | None, table: str | None, automorphism: str | None):
    """Twisted conjugacy class count: exact on Z^k + torsion via --matrix,
    or by orbit enumeration over a finite multiplication table via --table."""
    if (matrix is None) == (table is None):
        raise ValueError("give exactly one of --matrix or --table")
    if table is not None:
        rows = json.loads(table)
        if not isinstance(rows, list):
            raise ValueError("--table must be a JSON list of rows")
        group = abelian.FiniteGroupTable(rows)
        perm = (json.loads(automorphism) if automorphism
                else list(range(group.order)))
        count, reps = abelian.brute_force_twisted_classes(group, perm)
        _emit({"reidemeister": count, "representatives": reps})
        return
    free_part = json.loads(matrix)
    factors = json.loads(torsion) if torsion else []
    tmap = json.loads(torsion_map) if torsion_map else None
    mix = json.loads(mixing) if mixing else None
    phi = abelian.FGAbelianAutomorphism.from_matrix(free_part, factors, tmap, mix)
    value = abelian.reidemeister_number(phi)
    _emit({"reidemeister": "infinity" if value == abelian.INFINITE else value})


def probe(atom_text: str, direction_text: str, mode: str, radius: int,
          grid: str | None, lambda_max: str, fmt: str):
    """Connectivity probe of half-space or truncated-cone sublevel sets."""
    expr = ex.parse_group_expr(atom_text)
    if expr.node != "atom":
        raise ValueError("the probe runs on single atoms, not products")
    gamma = spheres.Direction([int(c) for c in direction_text.split(",")])
    # every check runs before the ball is built, in the order the probe
    # would meet them: the caps, the scales, the configuration, the direction
    ballprobe.check_ball(expr.atom, radius)
    scales = (ballprobe.default_grid(radius) if grid is None
              else [ballprobe._rational(chunk) for chunk in grid.split(",")])
    budget = ballprobe._rational(lambda_max)
    ballprobe.check_probe(expr.atom, gamma, radius, scales, mode, budget)
    ball = ballprobe.enumerate_ball(expr.atom, radius)
    report = ballprobe.connectivity_probe(ball, gamma, scales, mode, budget)
    if fmt == "csv":
        print(report.to_csv())
    else:
        ballprobe._emit_probe(report.to_json_dict())


def selfcheck():
    """Replay the acceptance criteria and the golden examples."""
    from .selfcheck import run_all

    results = run_all()
    for result in results:
        print(result.line(), file=sys.stderr)
    _emit({"selfcheck": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
           "ok": all(r.ok for r in results)})
    if not all(r.ok for r in results):
        sys.exit(1)


# ---------------------------------------------------------------------------
# the command table

REQUIRED = object()  # the default of an option that must be given


class Choice:
    """Converter that accepts one of a fixed list of words."""

    def __init__(self, *choices: str):
        self.choices = choices

    def __call__(self, text: str) -> str:
        if text not in self.choices:
            raise ValueError("%r is not one of %s" % (text, ", ".join(map(repr, self.choices))))
        return text


class Option:
    """A long option: the parameter it fills, the converter its value goes
    through, its default (REQUIRED when it must be given) and its help line."""

    def __init__(self, dest: str, type=str, default=None, help: str = ""):
        self.dest, self.type, self.default, self.help = dest, type, default, help


class Command:
    """A command's function, its short options (letter -> long option name)
    and its long options (name -> Option)."""

    def __init__(self, func, short: dict, options: dict):
        self.func, self.short, self.options = func, short, options


COMMANDS = {
    "invariants": Command(invariants, {"g": "group", "n": "level"}, {
        "group": Option("text", str, REQUIRED, "group expression, e.g. 'BS(1,2) x F(3)'"),
        "level": Option("level", int, 1, "invariant level"),
    }),
    "probe": Command(probe, {}, {
        "atom": Option("atom_text", str, REQUIRED, "probe atom: Z^k, F(n), BS(1,n), or Klein"),
        "dir": Option("direction_text", str, REQUIRED,
                      "direction as comma-separated integers, e.g. '1,0'"),
        # ballprobe.HALF_SPACE and ballprobe.TRUNCATED_CONE, spelled out so that
        # reading the command line does not load ballprobe
        "mode": Option("mode", Choice("halfspace", "cone"), "halfspace"),
        "radius": Option("radius", int, 6),
        "grid": Option("grid", str, None,
                       "comma-separated scales (rationals allowed), e.g. '0,1/2,1,2'"),
        "lambda-max": Option("lambda_max", str, "1", "retreat budget (rational)"),
        "format": Option("fmt", Choice("json", "csv"), "json"),
    }),
    "reidemeister": Command(reidemeister, {}, {
        "matrix": Option("matrix", help="JSON matrix for the free part, e.g. '[[-1]]'"),
        "torsion": Option("torsion", help="JSON list of invariant factors, e.g. '[2,4]'"),
        "torsion-map": Option("torsion_map", help="JSON matrix acting on the torsion part"),
        "mixing": Option("mixing", help="JSON matrix: torsion components of free images"),
        "table": Option("table", help="JSON n x n multiplication table of a finite group"
                                      " (brute-force path)"),
        "automorphism": Option("automorphism",
                               help="JSON permutation list; automorphism of the --table group"),
    }),
    "rinf": Command(rinf, {"g": "group"}, {
        "group": Option("text", str, REQUIRED, "group expression"),
    }),
    "selfcheck": Command(selfcheck, {}, {}),
}

_TOP_FLAGS = {"version": "Show the version and exit.", "help": "Show this message and exit."}


def _parse(words: list, short: dict, options: dict, parse=getopt.gnu_getopt):
    """The long names of the options given in WORDS, each with its last value
    ("" for a flag, which OPTIONS maps to None), and the words that are not options."""
    flags = {name for name, option in options.items() if option is None}
    pairs, rest = parse(words, "".join(letter + ":" for letter in short),
                        [name if name in flags else name + "=" for name in options])
    # getopt also takes a unique prefix of a long option for the option;
    # walk the words to accept whole names only
    spelled = iter(words)
    given = {}
    for name, value in pairs:
        word = next(spelled)
        while not word.startswith("-") or word == "-":  # a word that is not an option
            word = next(spelled)
        if name.startswith("--"):
            written, eq, _ = word.partition("=")
            if written != name:
                raise getopt.GetoptError("option %s not recognized" % written)
            name = name[2:]
            if not eq and name not in flags:
                next(spelled)
        else:
            if len(word) == 2:  # every short option takes a value
                next(spelled)
            name = short[name[1:]]
        given[name] = value
    return given, rest


def _program_name() -> str:
    """The name the program was started by: ``python -m groupinv.cli`` when it runs
    as a module, the file name of the script otherwise."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(sys.argv[0])
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    return "python -m " + (package if name == "__main__" else package + "." + name)


def _columns(rows: list) -> str:
    width = max(len(left) for left, _ in rows)
    return "\n".join(("  %-*s  %s" % (width, left, right)).rstrip() for left, right in rows)


def _top_help(prog: str) -> str:
    return "\n".join([
        "Usage: %s [OPTIONS] COMMAND [ARGS]..." % prog, "",
        "  " + main.__doc__.splitlines()[0], "",
        "Options:", _columns([("--" + name, text) for name, text in _TOP_FLAGS.items()]), "",
        "Commands:", _columns([(name, " ".join(command.func.__doc__.split()))
                               for name, command in COMMANDS.items()])])


def _command_help(prog: str, name: str) -> str:
    command = COMMANDS[name]
    letters = {long: letter for letter, long in command.short.items()}
    rows = []
    for long, option in command.options.items():
        choices = getattr(option.type, "choices", None)
        metavar = ("[%s]" % "|".join(choices) if choices
                   else "INTEGER" if option.type is int else "TEXT")
        note = ("[required]" if option.default is REQUIRED
                else "" if option.default is None else "[default: %s]" % option.default)
        flag = ("-%s, " % letters[long] if long in letters else "") + "--" + long
        rows.append(("%s %s" % (flag, metavar), " ".join(filter(None, (option.help, note)))))
    rows.append(("--help", _TOP_FLAGS["help"]))
    doc = [line.strip() for line in command.func.__doc__.splitlines()]
    return "\n".join(["Usage: %s %s [OPTIONS]" % (prog, name), "",
                      *("  " + line for line in doc), "", "Options:", _columns(rows)])


def main(args=None, prog_name=None):
    """Geometric end-invariants, twisted conjugacy counts, and R-infinity verdicts.

    Runs one command line, ``sys.argv[1:]`` by default; PROG_NAME is the
    program name that usage, help and ``--version`` print.
    """
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or _program_name()
    name = None
    try:
        # the options before the command, up to the command's name
        given, rest = _parse(args, {}, dict.fromkeys(_TOP_FLAGS), getopt.getopt)
        if given:
            print("%s, version %s" % (prog, __version__) if next(iter(given)) == "version"
                  else _top_help(prog))
            return
        if not rest:
            print(_top_help(prog), file=sys.stderr)
            sys.exit(2)
        if rest[0] not in COMMANDS:
            raise getopt.GetoptError("no such command %r" % rest[0])
        name, words = rest[0], rest[1:]
        command = COMMANDS[name]
        given, extra = _parse(words, command.short, {**command.options, "help": None})
        if "help" in given:
            print(_command_help(prog, name))
            return
        if extra:
            raise getopt.GetoptError("unexpected extra argument%s (%s)"
                                     % ("s" if len(extra) > 1 else "", " ".join(extra)))
        kwargs = {}
        for long, option in command.options.items():
            if long in given:
                try:
                    kwargs[option.dest] = option.type(given[long])
                except ValueError as exc:
                    raise getopt.GetoptError("invalid value for --%s: %s" % (long, exc)) from None
            elif option.default is REQUIRED:
                raise getopt.GetoptError("missing option --%s" % long)
            else:
                kwargs[option.dest] = option.default
    except getopt.GetoptError as exc:
        usage = prog if name is None else "%s %s" % (prog, name)
        print("Usage: %s [OPTIONS]%s\nTry '%s --help' for help.\n\nError: %s"
              % (usage, "" if name else " COMMAND [ARGS]...", usage, exc), file=sys.stderr)
        sys.exit(2)
    try:
        command.func(**kwargs)
    except ValueError as exc:
        _fail(str(exc))


if __name__ == "__main__":
    main()
