"""Command-line interface.

Subcommands:

* ``volume``      print V_{g,n} (text, JSON or LaTeX), optionally evaluated
* ``intersect``   psi/kappa intersection numbers from volume coefficients
* ``verify``      run relation suites and/or the kernel quadrature oracle
* ``compact``     closed-surface volumes V_{g,0}
* ``table``       export the memoized volume table as a table file
* ``diag-zograf`` large-genus ratio diagnostic (no pass/fail)

Exit codes: 0 success, 1 verification failure, 2 usage error.  Structured
output goes to stdout, diagnostics to stderr.  ``--cache`` names a table
file that is only read; ``table --out`` is the one file a command writes.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .exact import PiPoly
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
# 2: each entry holds the records of its stored keys (a_1, a_2 >= ... >= a_n)
# only; 1 held every term
CACHE_VERSION = 2
# Convention stamp: a cache written under a different volume convention
# must be rejected rather than silently reinterpreted.
CONVENTION = "internal-halved-V11"
# The largest dimension 3g-3+n a command computes to.  compact 15 reads
# V_{15,1}, of dimension 43; the cost grows about tenfold per dimension,
# so a signature far past this would run for days instead of answering.
MAX_DIM = 60


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# rendering


def render_pipoly_latex(p: PiPoly) -> str:
    if not p:
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
    if not p:
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
    never interleave.  A symbolic link keeps pointing at the file it
    names, which is the one replaced."""
    path = os.path.realpath(path)
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp"
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
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_cache(path: str) -> VolumeTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        # nesting deeper than the parser's recursion limit
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
        raise UsageError(f"{path}: not a recognized volume table cache")
    if payload.get("version") != CACHE_VERSION:
        raise UsageError(
            f"{path}: volume table cache version {payload.get('version')!r}, "
            f"expected version {CACHE_VERSION}; rebuild it with 'wpvol table'"
        )
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


def _check_path(path: str, option: str) -> None:
    # fail before any computation, not when the file is read or written: a
    # directory, FIFO or device at the path would fail the rename, block the
    # read or be replaced by a regular file.  A symbolic link stands for the
    # file it names, which is the one read or written.
    if not path:
        raise UsageError(f"{option}: the path is empty")
    real = os.path.realpath(path)
    parent = os.path.dirname(real)
    if not os.path.isdir(parent):
        raise UsageError(f"{path}: directory {parent} does not exist")
    if os.path.exists(real) and not os.path.isfile(real):
        raise UsageError(f"{path}: exists and is not a regular file")


def _check_reach(dim: int, what: str) -> None:
    # before any table work: what needs volumes up to dimension dim
    if dim > MAX_DIM:
        raise UsageError(
            f"{what} needs dimension 3g-3+n = {dim}, beyond the largest wpvol "
            f"computes, {MAX_DIM}"
        )


def _open_table(args) -> VolumeTable:
    """The command's volume table: empty, or read from the ``--cache`` file.
    No command writes that file; ``table --out`` is the only writer."""
    if args.cache is None:
        return VolumeTable()
    _check_path(args.cache, "--cache")
    return load_cache(args.cache)


# ----------------------------------------------------------------------
# subcommands


def _digit_limit() -> int:
    # the most digits Python converts between int and text; 0 for no limit
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _shown(text: str) -> str:
    return text if len(text) <= 40 else f"{text[:20]}...({len(text)} characters)"


def _parse_lengths(text: str, n: int) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"expected {n} lengths, got {len(parts)}")
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        limit = _digit_limit()
        runs = [len(digits) for p in parts for digits in re.findall(r"\d+", p)]
        if limit and max(runs, default=0) > limit:
            raise UsageError(
                f"--lengths {_shown(text)}: a length has more than {limit} digits, "
                "too many for Python to read"
            ) from None
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
    _check_reach(moduli_dim(g, n), f"V_{{{g},{n}}}")
    values = None if args.lengths is None else _parse_lengths(args.lengths, n)
    table = _open_table(args)
    poly = table.volume(g, n) if args.internal_convention else table.true_volume(g, n)
    if values is not None:
        exact = poly.eval_rational(values)
        try:
            approx = exact.to_float()
        except OverflowError:
            raise UsageError(
                f"the value at --lengths {args.lengths} is too large for a float"
            ) from None
        try:
            if args.format == "json":
                text = json.dumps(
                    {
                        "g": g,
                        "n": n,
                        "lengths": [str(v) for v in values],
                        "value": exact.to_records(),
                        "float": approx,
                    },
                    indent=2,
                )
            else:
                render = render_pipoly_latex if args.format == "latex" else PiPoly.as_str
                text = f"{render(exact)} = {approx:.12g}"
        except ValueError:
            # an integer past the digit limit cannot be written out
            limit = _digit_limit()
            if not limit:
                raise
            raise UsageError(
                f"--lengths {_shown(args.lengths)}: the exact value has more than "
                f"{limit} digits in a numerator or denominator, too many for Python "
                "to write out"
            ) from None
        print(text)
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
    if args.kappa is not None and args.kappa < 0:
        raise UsageError(f"the kappa_1 power --kappa must be non-negative, got {args.kappa}")
    if not is_stable(g, n):
        raise UsageError(f"({g},{n}) is not a stable signature")
    d = moduli_dim(g, n)
    _check_reach(d, f"V_{{{g},{n}}}")
    table = _open_table(args)
    m = d - sum(alpha)
    if m < 0:
        print("0")
        print(
            f"note: |alpha| exceeds 3g-3+n = {d}; the pairing is zero by degree",
            file=sys.stderr,
        )
        return 0
    if args.kappa is not None and args.kappa != m:
        print("0")
        print(
            f"note: kappa power {args.kappa} does not match "
            f"3g-3+n-|alpha| = {m}; the pairing is zero by degree",
            file=sys.stderr,
        )
        return 0
    value = intersection_number(table, g, alpha)
    print(f"kappa-normalized: {value.kappa}  (kappa_1 power {value.m})")
    print(f"omega-normalized: {value.omega.as_str()}")
    return 0


def cmd_compact(args) -> int:
    if args.g < 2:
        raise UsageError("closed-surface volumes need genus >= 2")
    _check_reach(moduli_dim(args.g, 1), f"compact {args.g}, through V_{{{args.g},1}},")
    v = compact_volume(_open_table(args), args.g)
    if args.format == "json":
        print(json.dumps({"g": args.g, "n": 0, "value": v.to_records()}, indent=2))
    elif args.format == "latex":
        print(render_pipoly_latex(v))
    else:
        print(v.as_str())
    return 0


def cmd_table(args) -> int:
    _check_reach(args.max_dim, f"--max-dim {args.max_dim}")
    _check_path(args.out, "--out")
    table = _open_table(args)
    table.ensure(args.max_dim)
    save_cache(table, args.out)
    print(f"wrote {len(table.signatures())} entries to {args.out}", file=sys.stderr)
    return 0


def cmd_diag_zograf(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("the number of boundaries --n must be non-negative")
    first = 1 if n >= 1 else 2
    if args.gmax < first:
        raise UsageError(
            f"--gmax {args.gmax} is below the first genus {first} for --n {n}; "
            "the table would be empty"
        )
    _check_reach(moduli_dim(args.gmax, max(n, 1)), f"--gmax {args.gmax} --n {n}")
    table = _open_table(args)
    print("# g  ratio V_{g,n}(0) / [(4 pi^2)^(2g+n-3) (2g+n-3)! / sqrt(g pi)]")
    for g in range(first, args.gmax + 1):
        print(f"{g}  {zograf_ratio(table, g, n):.6f}")
    return 0


def cmd_verify(args) -> int:
    # before any work: every relation suite has an instance at dimension 1
    # and none at dimension 0, where passing would mean checking nothing
    what = f"verify {args.relation} --max-dim {args.max_dim}"
    if args.relation != "kernels":
        if args.max_dim < 1:
            raise UsageError(f"{what} checks no relation instance; use --max-dim 1 or more")
        _check_reach(args.max_dim, what)
    # the kernel suite reads no table, so it ignores --cache
    table = None if args.relation == "kernels" else _open_table(args)
    failures = 0
    results_json: list[dict] = []

    if args.relation in ("kernels", "all"):
        # imported here so that only the kernel suite loads the oracle
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

    if table is not None:
        relations = RELATIONS if args.relation == "all" else (args.relation,)
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
    common.add_argument("--cache", help="table file to read volumes from; never written")
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
