"""Command-line interface.

Subcommands:

* ``volume``      print V_{g,n} (text, JSON or LaTeX), optionally evaluated
* ``intersect``   psi/kappa intersection numbers from volume coefficients
* ``verify``      run relation suites and/or the kernel quadrature oracle
* ``compact``     closed-surface volumes V_{g,0}
* ``table``       export the memoized volume table as a cache file
* ``diag-zograf`` large-genus ratio diagnostic (no pass/fail)

Exit codes: 0 success, 1 verification failure, 2 usage error.  Structured
output goes to stdout, diagnostics to stderr.  A persistent cache file can
be supplied with ``--cache``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .exact import PiPoly, rat_to_str
from .intersect import (
    RELATIONS,
    compact_volume,
    intersection_number,
    run_relation_suite,
    zograf_ratio,
)
from .lpoly import LPoly
from .recursion import InvariantViolation, VolumeTable, is_stable, moduli_dim

CACHE_FORMAT = "wp-volume-table"
CACHE_VERSION = 1
# Convention stamp: a cache written under a different volume convention
# must be rejected rather than silently reinterpreted.
CONVENTION = "internal-halved-V11"


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# rendering


def render_pipoly_latex(p: PiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, q in p.items():
        coeff = (
            str(q.numerator)
            if q.denominator == 1
            else rf"\frac{{{q.numerator}}}{{{q.denominator}}}"
        )
        parts.append(coeff + (rf"\pi^{{{2 * k}}}" if k else ""))
    return " + ".join(parts)


def _monomial_text(alpha) -> str:
    return " ".join(f"L{i + 1}^{2 * a}" for i, a in enumerate(alpha) if a)


def _monomial_latex(alpha) -> str:
    return " ".join(f"L_{{{i + 1}}}^{{{2 * a}}}" for i, a in enumerate(alpha) if a)


def _render_lpoly(p: LPoly, render_coeff, render_mono, joiner: str) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for alpha, _ in p.sorted_items():
        head, mono = render_coeff(p.pi_coefficient(alpha)), render_mono(alpha)
        parts.append(f"{head}{joiner}{mono}" if mono else head)
    return " + ".join(parts)


def render_lpoly_text(p: LPoly) -> str:
    return _render_lpoly(p, PiPoly.as_str, _monomial_text, "*")


def render_lpoly_latex(p: LPoly) -> str:
    return _render_lpoly(p, render_pipoly_latex, _monomial_latex, " ")


# ----------------------------------------------------------------------
# cache file


@contextmanager
def _atomic_write(path: str):
    """A text file that replaces ``path`` only once it is completely
    written: a reader never sees a partial file, and concurrent writers
    never interleave."""
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)),
        f".{os.path.basename(path)}.{os.getpid()}.tmp",
    )
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_cache(table: VolumeTable, path: str) -> None:
    payload = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "tool": f"wpvol {__version__}",
        "convention": CONVENTION,
        "entries": table.to_entries(),
    }
    with _atomic_write(path) as fh:
        # streamed: joining the text first adds about 12 MB to the peak
        # memory of a dimension-6 build
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_cache(path: str) -> VolumeTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: not a JSON file: {exc}") from None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != CACHE_FORMAT
        or payload.get("version") != CACHE_VERSION
    ):
        raise UsageError(f"{path}: not a recognized volume table cache")
    if payload.get("convention") != CONVENTION:
        raise UsageError(
            f"{path}: cache written under convention "
            f"{payload.get('convention')!r}, expected {CONVENTION!r}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        raise UsageError(f"{path}: cache has no 'entries' table")
    try:
        return VolumeTable.from_entries(entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: malformed cache entry: {exc!r}") from None


def _check_parent_dir(path: str) -> None:
    # fail before any computation, not when the result is written
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"{path}: directory {parent} does not exist")


@contextmanager
def _cached_table(args):
    """The command's volume table, loaded from the cache file if there is
    one; written back, atomically, only when the command added entries."""
    path = args.cache
    if path:
        _check_parent_dir(path)
    table = load_cache(path) if path and os.path.exists(path) else VolumeTable()
    known = len(table.signatures())
    yield table
    if path and len(table.signatures()) > known:
        save_cache(table, path)


# ----------------------------------------------------------------------
# subcommands


def _parse_lengths(text: str, n: int) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"expected {n} lengths, got {len(parts)}")
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad length list: {exc}") from None
    if any(v < 0 for v in values):
        raise UsageError("boundary lengths must be non-negative")
    return values


def cmd_volume(args) -> int:
    g, n = args.g, args.n
    if n == 0:
        raise UsageError("closed surfaces have no boundary polynomial; use 'compact'")
    if not is_stable(g, n):
        raise UsageError(f"({g},{n}) is not a stable signature")
    values = None if args.lengths is None else _parse_lengths(args.lengths, n)
    with _cached_table(args) as table:
        poly = table.volume(g, n) if args.internal_convention else table.true_volume(g, n)
    if values is not None:
        exact = poly.eval_rational(values)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "g": g,
                        "n": n,
                        "lengths": [rat_to_str(v) for v in values],
                        "value": exact.to_records(),
                        "float": exact.to_float(),
                    },
                    indent=2,
                )
            )
        else:
            render = render_pipoly_latex if args.format == "latex" else PiPoly.as_str
            print(f"{render(exact)} = {exact.to_float():.12g}")
    elif args.format == "json":
        print(json.dumps({"g": g, "n": n, "terms": poly.to_records()}, indent=2))
    elif args.format == "latex":
        print(render_lpoly_latex(poly))
    else:
        print(render_lpoly_text(poly))
    return 0


def cmd_intersect(args) -> int:
    g = args.g
    alpha = tuple(args.alpha)
    n = len(alpha)
    if n == 0:
        raise UsageError("alpha must have at least one entry")
    if any(a < 0 for a in alpha):
        raise UsageError("psi exponents must be non-negative")
    if not is_stable(g, n):
        raise UsageError(f"({g},{n}) is not a stable signature")
    d = moduli_dim(g, n)
    m = d - sum(alpha)
    if args.kappa is not None and args.kappa != m:
        print("0")
        print(
            f"note: kappa power {args.kappa} does not match "
            f"3g-3+n-|alpha| = {m}; the pairing is zero by degree",
            file=sys.stderr,
        )
        return 0
    if m < 0:
        print("0")
        print(
            f"note: |alpha| exceeds 3g-3+n = {d}; the pairing is zero by degree",
            file=sys.stderr,
        )
        return 0
    with _cached_table(args) as table:
        value = intersection_number(table, g, alpha)
    print(f"kappa-normalized: {rat_to_str(value.kappa)}  (kappa_1 power {value.m})")
    print(f"omega-normalized: {value.omega.as_str()}")
    return 0


def cmd_compact(args) -> int:
    if args.g < 2:
        raise UsageError("closed-surface volumes need genus >= 2")
    with _cached_table(args) as table:
        v = compact_volume(table, args.g)
    if args.format == "json":
        print(json.dumps({"g": args.g, "n": 0, "value": v.to_records()}, indent=2))
    elif args.format == "latex":
        print(render_pipoly_latex(v))
    else:
        print(v.as_str())
    return 0


def cmd_table(args) -> int:
    _check_parent_dir(args.out)
    with _cached_table(args) as table:
        table.ensure(args.max_dim)
        save_cache(table, args.out)
    print(f"wrote {len(table.signatures())} entries to {args.out}", file=sys.stderr)
    return 0


def cmd_diag_zograf(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("the number of boundaries --n must be non-negative")
    with _cached_table(args) as table:
        print("# g  ratio V_{g,n}(0) / [(4 pi^2)^(2g+n-3) (2g+n-3)! / sqrt(g pi)]")
        for g in range(1 if n >= 1 else 2, args.gmax + 1):
            print(f"{g}  {zograf_ratio(table, g, n):.6f}")
    return 0


def cmd_verify(args) -> int:
    failures = 0
    results_json: list[dict] = []

    if args.relation in ("kernels", "all"):
        # imported here so that only the oracle suite loads numpy
        from .oracle import kernel_identity_report, moment_validation_report

        for rec in moment_validation_report() + kernel_identity_report():
            failures += 0 if rec["pass"] else 1
            if args.format == "json":
                results_json.append(rec)
            else:
                status = "PASS" if rec["pass"] else "FAIL"
                print(
                    f"kernels {status} {rec['check']} "
                    f"max_dev={rec['max_abs_dev']:.3e} tol={rec['tolerance']:.0e}"
                )

    if args.relation != "kernels":
        relations = RELATIONS if args.relation == "all" else (args.relation,)
        with _cached_table(args) as table:
            table.ensure(args.max_dim)
            for rel in relations:
                records = run_relation_suite(table, rel, args.max_dim)
                for rec in records:
                    failures += 0 if rec.passed else 1
                    if args.format == "json":
                        results_json.append(rec.to_json())
                    else:
                        status = "PASS" if rec.passed else "FAIL"
                        where = f"g={rec.g} n={rec.n}"
                        if rec.alpha is not None:
                            where += f" alpha={list(rec.alpha)}"
                        line = f"{rec.relation} {status} {where}"
                        if not rec.passed:
                            line += f" lhs={rec.lhs} rhs={rec.rhs}"
                        print(line)
                print(
                    f"# {rel}: {sum(r.passed for r in records)}/{len(records)} passed",
                    file=sys.stderr,
                )

    if args.format == "json":
        print(json.dumps(results_json, indent=2))
    return 1 if failures else 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpvol",
        description="Exact Weil-Petersson volume polynomials, intersection "
        "numbers, and identity verification.",
    )
    parser.add_argument("--version", action="version", version=f"wpvol {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache", help="path of a persistent table cache (JSON)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", parents=[common], help="print a volume polynomial")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--lengths", help="comma-separated rational boundary lengths")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.add_argument(
        "--internal-convention",
        action="store_true",
        help="report the recursion's halved value at (1,1)",
    )
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser(
        "intersect", parents=[common], help="psi/kappa intersection numbers"
    )
    p.add_argument("g", type=int)
    p.add_argument("alpha", type=int, nargs="+", help="psi exponents d_1 .. d_n")
    p.add_argument("--kappa", type=int, help="expected kappa_1 power (checked)")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p.add_argument("relation", choices=RELATIONS + ("kernels", "all"))
    p.add_argument(
        "--max-dim",
        type=int,
        default=6,
        dest="max_dim",
        help="bound on 3g-3+n for relation suites (default 6)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compact", parents=[common], help="closed-surface volume")
    p.add_argument("g", type=int)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("table", parents=[common], help="export the volume table")
    p.add_argument("--max-dim", type=int, default=6, dest="max_dim")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "diag-zograf", parents=[common], help="large-genus ratio diagnostic"
    )
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_diag_zograf)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # before any work: a negative bound would check or build nothing
        if getattr(args, "max_dim", 0) < 0:
            raise UsageError(f"--max-dim must be non-negative, got {args.max_dim}")
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: rejected invalid table data: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
