"""Command-line interface: batch drivers for the irrep census, orbit and
tame-parameter enumeration, Hecke matrix dumps, the full verification
pipeline, and projective-basis dumps.

All output is deterministic: JSON is emitted with sorted keys and compact
separators, matrices optionally as TSV with a comment header.  The
per-sigma verification loop runs serially in canonical order: it is pure
Python, so threads could not speed it up under the GIL.  TJL_THREADS is
still read and validated (a positive integer, else exit 2) but changes
nothing, so the bytes do not depend on it.  The parser checks the shape
of every argument, and a command its --place or --sigma, before any work,
so the exception type alone sets the exit code: 0 success; 1 falsified
invariant, including any internal ValueError or ZeroDivisionError (a
non-rational inner product, a scalar order mismatch, a failed inverse);
2 usage error, a UsageError (argparse's own errors included) or an
--output path that cannot be written; 3 resource or search bound
exceeded.  Every failure writes one JSON line with a non-empty message to
stderr.

Start-up is kept lean: beyond tjl's own modules, importing this module
loads only argparse, json and fractions from the standard library (with
what they import themselves), and run() builds the argument parser once
per process and reuses it on every later call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .adelic import (
    FalsificationError,
    SearchBoundExceededError,
    default_places,
    group_of,
    hecke_matrix,
    synthesize_random_adele,
    factorize_adele,
    verify_witness_uniqueness,
)
from .funcfield import Poly, format_poly, is_irreducible, parse_poly
from .metacyclic import (
    GroupParams,
    IrrepLabel,
    character_inner,
    character_table,
    chi_restriction,
    enumerate_irreps,
    enumerate_orbits,
    gamma,
    orthonormality_pairs,
)
from .quaternion import AlgebraParams, OrderElement
from .spectral import projective_basis, verify_claim
from .tame import tame_report

SCHEMA_VERSION = "1"
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
ODD_PRIME_POWERS = (3, 5, 7, 9)
LOCAL_SIZE_CAP = 5000


class UsageError(Exception):
    """A malformed or meaningless argument: exit 2."""


class _Parser(argparse.ArgumentParser):
    """Its errors are UsageErrors: one JSON line, not argparse's usage text."""

    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


def _check_threads() -> None:
    try:
        _int_at_least(1)(os.environ.get("TJL_THREADS", "1"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"TJL_THREADS {exc}") from None


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_local(q: int, n: int, level: int) -> None:
    if n * level * (q ** n - 1) > LOCAL_SIZE_CAP:
        raise SearchBoundExceededError(
            f"group order {n * level * (q ** n - 1)} exceeds the cap "
            f"{LOCAL_SIZE_CAP}")


def _parse_sigma(text: str, group) -> IrrepLabel:
    if text == "trivial":
        return IrrepLabel((0,), 0)
    parts = text.split(":")
    try:
        # s defaults to 0; a third part fails the unpacking, a ValueError too
        c, s = map(int, parts + ["0"] * (2 - len(parts)))
    except ValueError:
        raise UsageError(
            f"--sigma takes 'trivial' or 'c[:s]' with integers, got {text!r}")
    orbit = group.frobenius_orbit(c % group.M)
    label = IrrepLabel(orbit, s % (group.R // len(orbit)))
    if label not in enumerate_irreps(group):
        raise UsageError(f"no irrep labeled by {text!r}")
    return label


def _certify_places(alg: AlgebraParams, places: list[Poly],
                    depth_bound: int) -> list[dict]:
    """Each place's uniqueness certificate, in order: the one check of
    --depth-bound, made before any other adelic work."""
    return [{"place": format_poly(pi),
             **verify_witness_uniqueness(alg, pi, depth_bound=depth_bound)}
            for pi in places]


def _parse_place(alg: AlgebraParams, text: str) -> Poly:
    try:
        pi = parse_poly(alg.field, text)
    except ValueError as exc:
        raise UsageError(f"bad --place {text!r}: {exc}") from None
    if not pi.is_monic() or not is_irreducible(pi):
        raise UsageError(f"place must be a monic irreducible, got {text!r}")
    if pi == Poly.t(alg.field):
        raise UsageError("the algebra is ramified at t; choose another place")
    return pi


# -- subcommands -------------------------------------------------------


def cmd_irreps(args) -> int:
    _check_local(args.q, args.n, args.level)
    G = gamma(args.q, args.n, args.level)
    labels, reps, sizes, rows = character_table(G)
    square_sum = sum(lb.dim ** 2 for lb in labels)
    # <b, a> is the conjugate of <a, b>, and both must be rational (else
    # NotRationalError), so the pairs i <= j decide orthonormality; the
    # table's certified symmetries carry each pair's verdict to its whole
    # orbit, so only the first pair of each orbit is computed
    failed = []
    for i, j in orthonormality_pairs(G, rows):
        want = Fraction(1 if i == j else 0)
        got = character_inner(G, rows[i], rows[j], sizes)
        if got != want and not failed:
            failed.append(f"orthonormality: <{labels[i]}, {labels[j]}> "
                          f"is {got}, not {want}")
    ortho = not failed  # only the pair check has run so far
    classes = G.conjugacy_classes()
    multiplicity = []
    for lb in labels:
        # the restriction to the pairs (0, e) contains chi_c exactly for c
        # in the orbit; chi_restriction certifies each c of Z/M
        support = list(chi_restriction(G, lb))
        if support != list(lb.orbit):
            raise FalsificationError(
                f"the restriction of {lb} contains chi_c for c in {support}, "
                f"not for its orbit {list(lb.orbit)}")
        multiplicity.append({"sigma": lb.to_json(), "support": support})
    # a table holds few distinct values, each shared by many entries: one
    # JSON object per value object
    as_json = {}
    for row in rows:
        for v in row:
            if id(v) not in as_json:
                as_json[id(v)] = v.to_json()
    report = {
        "schema_version": SCHEMA_VERSION,
        "q": args.q,
        "n": args.n,
        "N": args.level,
        "group_order": G.order,
        "irrep_count": len(labels),
        "class_count": len(classes),
        "dims": sorted(lb.dim for lb in labels),
        "square_sum": square_sum,
        "orthonormal": ortho,
        "irreps": [lb.to_json() for lb in labels],
        "character_table": {
            "class_representatives": [list(r) for r in reps],
            "class_sizes": sizes,
            "rows": [[as_json[id(v)] for v in row] for row in rows],
        },
        "restriction_multiplicities": multiplicity,
    }
    _emit(_canonical_json(report), args.output)
    if square_sum != G.order:
        failed.append(f"square sum: the irrep dimensions square-sum to "
                      f"{square_sum}, not the group order {G.order}")
    if len(labels) != len(classes):
        failed.append(f"census: {len(labels)} irreps but {len(classes)} "
                      f"conjugacy classes")
    return _verdict(failed)


def cmd_orbits(args) -> int:
    _check_local(args.q, args.n, args.level)
    G = gamma(args.q, args.n, args.level)
    orbits = enumerate_orbits(G)
    report = {
        "schema_version": SCHEMA_VERSION,
        "q": args.q,
        "n": args.n,
        "modulus": G.M,
        "orbits": [list(o) for o in orbits],
        "count": len(orbits),
        "regular_count": sum(1 for o in orbits if len(o) == args.n),
    }
    _emit(_canonical_json(report), args.output)
    return 0


def cmd_tame(args) -> int:
    _check_local(args.q, args.n, args.level)
    report = tame_report(GroupParams(args.q, args.n, args.level))
    report = {"schema_version": SCHEMA_VERSION, **report}
    _emit(_canonical_json(report), args.output)
    if report["all_sums_match"]:
        return 0
    bad = [e["parameter"] for e in report["parameters"]
           if not e["sum_matches"]]
    return _verdict([f"all_sums_match: the r-sum over A_tame differs from "
                     f"r for {_canonical_json(bad)}"])


def cmd_brandt(args) -> int:
    alg = AlgebraParams(args.q, level=args.level)
    pi = _parse_place(alg, args.place)
    _certify_places(alg, [pi], args.depth_bound)
    T = hecke_matrix(alg, pi)
    G = group_of(alg)
    if args.format == "tsv":
        lines = [
            f"# schema_version={SCHEMA_VERSION}",
            f"# q={args.q} N={args.level} place={format_poly(pi)}",
            f"# group_order={G.order} coset_count={args.q ** pi.degree + 1}",
        ]
        for row in T:
            lines.append("\t".join(map(str, row)))
        _emit("\n".join(lines), args.output)
    else:
        report = {
            "schema_version": SCHEMA_VERSION,
            "q": args.q,
            "N": args.level,
            "place": format_poly(pi),
            "group_order": G.order,
            "coset_count": args.q ** pi.degree + 1,
            "matrix": T,
        }
        _emit(_canonical_json(report), args.output)
    return 0


def _verify_one(alg, label, places):
    return verify_claim(alg, label, places).to_json()


def cmd_verify(args) -> int:
    alg = AlgebraParams(args.q, level=args.level)
    G = group_of(alg)
    places = default_places(alg, args.degree_bound)
    labels = enumerate_irreps(G)
    if args.sigma:
        labels = [_parse_sigma(args.sigma, G)]

    uniqueness = _certify_places(alg, places, args.depth_bound)

    import random
    rng = random.Random(args.seed)
    trips = 0
    for _ in range(args.round_trips):
        state, cls, grand = synthesize_random_adele(alg, rng, places)
        recovered, rho = factorize_adele(alg, state)
        if recovered != cls:
            raise FalsificationError(
                f"round trip recovered class {recovered}, not {cls}")
        if grand * rho != OrderElement.one(alg):
            raise FalsificationError(
                "the peeled global factor does not cancel the synthesized one")
        trips += 1

    sigma_reports = [_verify_one(alg, lb, places) for lb in labels]

    report = {
        "schema_version": SCHEMA_VERSION,
        "q": args.q,
        "N": args.level,
        "places": [format_poly(p) for p in places],
        "witness_uniqueness": uniqueness,
        "round_trips": {"count": trips, "seed": args.seed},
        "sigma_reports": sigma_reports,
        "all_claims_ok": all(r["claim_ok"] for r in sigma_reports),
    }
    _emit(_canonical_json(report), args.output)
    return _verdict([f"all_claims_ok: the claim fails for sigma "
                     f"{_canonical_json(r['sigma'])}"
                     for r in sigma_reports if not r["claim_ok"]])


def cmd_basis(args) -> int:
    alg = AlgebraParams(args.q, level=args.level)
    G = group_of(alg)
    label = _parse_sigma(args.sigma, G)
    places = default_places(alg, args.degree_bound)
    _certify_places(alg, places, args.depth_bound)
    pb = projective_basis(alg, label, places)
    report = {
        "schema_version": SCHEMA_VERSION,
        "q": args.q,
        "N": args.level,
        "sigma": label.to_json(),
        "dim": label.dim,
        "lines": [
            {"a": a, "chi": chi,
             "line_coordinates": [c.to_json() for c in vec]}
            for a, chi, vec in pb.lines
        ],
    }
    _emit(_canonical_json(report), args.output)
    return 0


# -- parser and entry point -------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tjl",
        description="Exact representation-theory laboratory for metacyclic "
                    "groups, the tame dictionary, and quaternionic "
                    "automorphic spectra over F_q(t).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, adelic=False):
        p.add_argument("--q", type=int, required=True,
                       choices=ODD_PRIME_POWERS if adelic else PRIME_POWERS,
                       help="residue field size (prime power)")
        p.add_argument("--N", "--level", dest="level", type=_int_at_least(1),
                       default=1, help="level (default 1)")
        p.add_argument("--output", help="write the report to this path")
        if adelic:
            p.add_argument("--degree-bound", type=_int_at_least(1), default=2,
                           help="max degree of split places used (default 2)")
            p.add_argument("--depth-bound", type=int, default=3,
                           help="max witness denominator depth (default 3)")
        else:
            p.add_argument("--n", type=int, choices=range(1, 5), default=2,
                           help="unramified degree (default 2)")

    p = sub.add_parser("irreps", help="irrep census and character table")
    common(p)
    p.set_defaults(func=cmd_irreps)

    p = sub.add_parser("orbits", help="Frobenius orbit enumeration")
    common(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("tame", help="tame parameters, transfers, and sums")
    common(p)
    p.set_defaults(func=cmd_tame)

    p = sub.add_parser("brandt", help="Hecke matrix dump")
    common(p, adelic=True)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--place", required=True,
                   help="monic irreducible place, e.g. 't-1' or 't^2+1'")
    p.set_defaults(func=cmd_brandt)

    p = sub.add_parser("verify", help="full pipeline verification")
    common(p, adelic=True)
    p.add_argument("--sigma", help="restrict to one irrep: 'trivial' or 'c[:s]'")
    p.add_argument("--seed", type=int, default=20240,
                   help="seed for the round-trip property checks")
    p.add_argument("--round-trips", type=_int_at_least(0), default=5,
                   help="number of synthesized round trips (default 5)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", help="projective basis dump for one irrep")
    common(p, adelic=True)
    p.add_argument("--sigma", required=True,
                   help="'trivial' or 'c[:s]'")
    p.set_defaults(func=cmd_basis)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def run(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        # parsing leaves no state in the parser, so one serves every call
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        _check_threads()
        return args.func(args)
    except (UsageError, OSError) as exc:
        # an OSError here is an --output path that cannot be written
        return _fail(2, "usage", exc)
    except SearchBoundExceededError as exc:
        return _fail(3, "resource", exc,
                     hint="raise --degree-bound/--depth-bound")
    except (FalsificationError, ValueError, ZeroDivisionError) as exc:
        # every argument was checked before the work began, so an exact
        # computation contradicted itself: not the caller's fault
        return _fail(1, "falsification", exc)


def _verdict(failed: list[str]) -> int:
    """The exit code of a command whose report is already written: 0 when
    no check failed, else 1, with the failed checks named on stderr."""
    if not failed:
        return 0
    return _fail(1, "falsification", FalsificationError("; ".join(failed)))


def _fail(code: int, error: str, exc: Exception, **extra) -> int:
    """Report exc on stderr as one JSON line, never with an empty message."""
    print(_canonical_json({"schema_version": SCHEMA_VERSION, "error": error,
                           "message": str(exc) or type(exc).__name__,
                           **extra}),
          file=sys.stderr)
    return code


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
