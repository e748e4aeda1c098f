"""Command-line front end: invariants, verdicts, Reidemeister numbers, the
Cayley-ball probe, and the selfcheck replay of the golden examples.

Every successful invocation prints one JSON document to standard output with
the package version embedded; computation failures print a JSON error object
and exit 1, usage errors exit 2.  Output is deterministic.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

import click

from . import __version__
from . import abelian, ballprobe, catalog, spheres
from . import expressions as ex
from . import rinf as rinf_rules  # the `rinf` command below takes the plain name


def _emit(payload: dict) -> None:
    payload = {"version": __version__, **payload}
    click.echo(json.dumps(payload, indent=2, sort_keys=False))


def _fail(message: str) -> None:
    click.echo(json.dumps({"version": __version__, "error": message}))
    sys.exit(1)


@click.group()
@click.version_option(__version__)
def main():
    """Geometric end-invariants, twisted conjugacy counts, and R-infinity verdicts."""


@main.command()
@click.option("-g", "--group", "text", required=True, help="group expression, e.g. 'BS(1,2) x F(3)'")
@click.option("-n", "--level", default=1, show_default=True, help="invariant level")
def invariants(text: str, level: int):
    """Hom-rank, obstruction set, and surviving directions with provenance."""
    try:
        expr = ex.parse_group_expr(text)
        inv = catalog.lookup_invariants(expr)
        _emit({"group": expr.label(), **inv.summary(level)})
    except (ex.ParseError, ValueError) as exc:
        _fail(str(exc))


@main.command()
@click.option("-g", "--group", "text", required=True, help="group expression")
def rinf(text: str):
    """R-infinity verdict with its derivation trace."""
    try:
        expr = ex.parse_group_expr(text)
        verdict = rinf_rules.decide(expr)
        _emit({"group": expr.label(), **verdict.to_json_dict()})
    except (ex.ParseError, ValueError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--matrix", default=None, help="JSON matrix for the free part, e.g. '[[-1]]'")
@click.option("--torsion", default=None, help="JSON list of invariant factors, e.g. '[2,4]'")
@click.option("--torsion-map", default=None, help="JSON matrix acting on the torsion part")
@click.option("--mixing", default=None, help="JSON matrix: torsion components of free images")
@click.option("--table", default=None,
              help="JSON n x n multiplication table of a finite group (brute-force path)")
@click.option("--automorphism", default=None,
              help="JSON permutation list; automorphism of the --table group")
def reidemeister(matrix: str | None, torsion: str | None, torsion_map: str | None,
                 mixing: str | None, table: str | None, automorphism: str | None):
    """Twisted conjugacy class count: exact on Z^k + torsion via --matrix,
    or by orbit enumeration over a finite multiplication table via --table."""
    try:
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
    except (ValueError, json.JSONDecodeError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--atom", "atom_text", required=True,
              help="probe atom: Z^k, F(n), BS(1,n), or Klein")
@click.option("--dir", "direction_text", required=True,
              help="direction as comma-separated integers, e.g. '1,0'")
# ballprobe.HALF_SPACE and ballprobe.TRUNCATED_CONE, spelled out so that
# building the command line does not load ballprobe
@click.option("--mode", type=click.Choice(["halfspace", "cone"]),
              default="halfspace", show_default=True)
@click.option("--radius", default=6, show_default=True)
@click.option("--grid", default=None,
              help="comma-separated scales (rationals allowed), e.g. '0,1/2,1,2'")
@click.option("--lambda-max", "lambda_max", default="1", show_default=True,
              help="retreat budget (rational)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def probe(atom_text: str, direction_text: str, mode: str, radius: int,
          grid: str | None, lambda_max: str, fmt: str):
    """Connectivity probe of half-space or truncated-cone sublevel sets."""
    try:
        expr = ex.parse_group_expr(atom_text)
        if expr.node != "atom":
            raise ValueError("the probe runs on single atoms, not products")
        gamma = spheres.Direction([int(c) for c in direction_text.split(",")])
        ball = ballprobe.enumerate_ball(expr.atom, radius)
        scales = (ballprobe.default_grid(radius) if grid is None
                  else [_rational(chunk) for chunk in grid.split(",")])
        report = ballprobe.connectivity_probe(ball, gamma, scales, mode, _rational(lambda_max))
        if fmt == "csv":
            click.echo(report.to_csv())
        else:
            _emit(report.to_json_dict())
    except (ex.ParseError, ValueError) as exc:
        _fail(str(exc))


_EXPONENT_FORM = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                            r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # Fraction's forms with an exponent


def _rational(text: str) -> Fraction:
    """An exact rational, refused when a part has more digits than Python prints; with d
    mantissa digits and |exponent| > limit + d a part always has, and 10^e is not built."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = "scale %r has a numerator or denominator of more than %d digits" % (text, limit)
    match = limit and _EXPONENT_FORM.match(text)
    if match:
        exponent, digits = int(match[3]), (match[1] + (match[2] or "")).replace("_", "")
        if not digits.strip("0"):
            return Fraction(0)
        if abs(exponent) > limit + len(digits):
            raise ValueError(too_long)
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None
    big = max(abs(value.numerator), value.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:  # 2^(3L) < 10^L
        raise ValueError(too_long)
    return value


@main.command()
def selfcheck():
    """Replay the acceptance criteria and the golden examples."""
    from .selfcheck import run_all

    results = run_all()
    for result in results:
        click.echo(result.line(), err=True)
    _emit({"selfcheck": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
           "ok": all(r.ok for r in results)})
    if not all(r.ok for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
