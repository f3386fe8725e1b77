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
file that is only read, and only where each entry equals the volume the
recursion computes; ``table --out`` is the one file a command writes.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import count
from typing import Optional, Sequence

from . import __version__
from .exact import PiPoly
from .intersect import (
    RELATIONS,
    compact_volume,
    intersection_number,
    relation_instances,
    run_relation_suite,
    zograf_ratio,
)
from .lpoly import LPoly
from .recursion import InvariantViolation, VolumeTable, _sorted_keys, is_stable, moduli_dim

CACHE_FORMAT = "wp-volume-table"
# 2: each entry holds the records of its stored keys (a_1, a_2 >= ... >= a_n)
# only; 1 held every term
CACHE_VERSION = 2
# Convention stamp: a cache written under a different volume convention
# must be rejected rather than silently reinterpreted.
CONVENTION = "internal-halved-V11"
# The largest dimension 3g-3+n a command computes to.  compact 15 reads
# V_{15,1}, of dimension 43; a whole table costs about 1.5-1.7x more per
# dimension and compact about 2.5x more per genus, so a signature far past
# this would run for days instead of answering.
MAX_DIM = 60


# ----------------------------------------------------------------------
# rendering


def render_pipoly_latex(p: PiPoly) -> str:
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
    names, which is the one replaced.  Only a temporary file this call
    created is removed: one that already exists makes the write fail."""
    path = os.path.realpath(path)
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp"
    )
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
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
        "entries": {f"{g},{n}": table._stored(g, n).to_records() for g, n in table.signatures()},
    }
    with _atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _entry_error(path: str, key: str, what: str) -> ValueError:
    return ValueError(
        f"{path}: entry {_shown(key)!r} {what}; rebuild it with 'wpvol table'"
    )


def load_cache(path: str) -> VolumeTable:
    """The table that computes every entry of the table file at ``path``,
    once each entry's records equal the computed ones byte for byte: the
    file can hold nothing the recursion does not compute, and a file that
    differs exits 2 rather than changing an answer."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        # nesting deeper than the parser's recursion limit
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
        raise ValueError(f"{path}: not a recognized volume table cache")
    if payload.get("version") != CACHE_VERSION:
        raise ValueError(
            f"{path}: volume table cache version {payload.get('version')!r}, "
            f"expected version {CACHE_VERSION}; rebuild it with 'wpvol table'"
        )
    if payload.get("convention") != CONVENTION:
        raise ValueError(
            f"{path}: cache written under convention "
            f"{payload.get('convention')!r}, expected {CONVENTION!r}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        raise ValueError(f"{path}: cache has no 'entries' table")
    table = VolumeTable()
    for key, records in entries.items():
        g_text, _, n_text = key.partition(",")
        try:
            g, n = int(g_text), int(n_text)
        except ValueError:
            g = n = -1
        if key != f"{g},{n}" or n < 1 or not is_stable(g, n):
            raise _entry_error(path, key, "is not a stable signature g,n with n >= 1")
        if not isinstance(records, list) or not records:
            raise _entry_error(path, key, "holds no terms")
        d = moduli_dim(g, n)
        _check_reach(d, f"{path}: entry {_shown(key)!r}")
        # one record per stored key, counted no further than the file's own
        # records before any volume is computed
        keys = 0
        for rest in _sorted_keys(n - 1, d):
            keys += d - sum(rest) + 1
            if keys > len(records):
                break
        if keys != len(records):
            more = "fewer" if keys > len(records) else "more"
            raise _entry_error(path, key, f"holds {more} records than V_{{{g},{n}}} has keys")
        if json.dumps(records) != json.dumps(table._stored(g, n).to_records()):
            raise _entry_error(path, key, f"differs from V_{{{g},{n}}} as computed")
    return table


def _check_path(path: str, option: str) -> None:
    # fail before any computation, not when the file is read or written: a
    # directory, FIFO or device at the path would fail the rename, block the
    # read or be replaced by a regular file.  A symbolic link stands for the
    # file it names, which is the one read or written.
    if not path:
        raise ValueError(f"{option}: the path is empty")
    real = os.path.realpath(path)
    parent = os.path.dirname(real)
    if not os.path.isdir(parent):
        raise ValueError(f"{path}: directory {parent} does not exist")
    if os.path.exists(real) and not os.path.isfile(real):
        raise ValueError(f"{path}: exists and is not a regular file")


def _check_reach(dim: int, what: str) -> None:
    # before any table work: what needs volumes up to dimension dim
    if dim > MAX_DIM:
        # str() refuses an integer of more digits than the limit
        limit = _digit_limit()
        shown = f">= 10^{limit}" if limit and dim >= 10**limit else f"= {_shown(dim)}"
        raise ValueError(
            f"{what} needs dimension 3g-3+n {shown}, beyond the largest wpvol "
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


def _shown(value: object) -> str:
    text = str(value)
    return text if len(text) <= 40 else f"{text[:20]}...({len(text)} characters)"


def _parse_lengths(text: str, n: int) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} lengths, got {len(parts)}")
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        limit = _digit_limit()
        runs = [len(digits) for p in parts for digits in re.findall(r"\d+", p)]
        if limit and max(runs, default=0) > limit:
            raise ValueError(
                f"--lengths {_shown(text)}: a length has more than {limit} digits, "
                "too many for Python to read"
            ) from None
        # Fraction's message quotes the entry whole
        raise ValueError(f"bad length list: {' '.join(map(_shown, str(exc).split()))}") from None
    if any(v < 0 for v in values):
        raise ValueError("boundary lengths must be non-negative")
    return values


def cmd_volume(args) -> int:
    g, n = args.g, args.n
    if not is_stable(g, n):
        raise ValueError(f"({_shown(g)},{_shown(n)}) is not a stable signature")
    if n == 0:
        raise ValueError("closed surfaces have no boundary polynomial; use 'compact'")
    _check_reach(moduli_dim(g, n), f"V_{{{_shown(g)},{_shown(n)}}}")
    values = None if args.lengths is None else _parse_lengths(args.lengths, n)
    table = _open_table(args)
    poly = table.volume(g, n) if args.internal_convention else table.true_volume(g, n)
    if values is not None:
        exact = poly.eval_rational(values)
        try:
            approx = exact.to_float()
        except OverflowError:
            raise ValueError(
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
            raise ValueError(
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
    if any(a < 0 for a in alpha):
        raise ValueError("psi exponents must be non-negative")
    if not is_stable(g, n):
        raise ValueError(f"({_shown(g)},{_shown(n)}) is not a stable signature")
    d = moduli_dim(g, n)
    _check_reach(d, f"V_{{{_shown(g)},{n}}}")
    table = _open_table(args)
    m = d - sum(alpha)
    if m < 0:
        print("0")
        print(
            f"note: |alpha| exceeds 3g-3+n = {d}; the pairing is zero by degree",
            file=sys.stderr,
        )
        return 0
    value = intersection_number(table, g, alpha)
    print(f"kappa-normalized: {value.kappa}  (kappa_1 power {value.m})")
    print(f"omega-normalized: {value.omega.as_str()}")
    return 0


def cmd_compact(args) -> int:
    if args.g < 2:
        raise ValueError("closed-surface volumes need genus >= 2")
    _check_reach(moduli_dim(args.g, 1), f"compact {_shown(args.g)}, through V_{{{_shown(args.g)},1}},")
    v = compact_volume(_open_table(args), args.g)
    if args.format == "json":
        print(json.dumps({"g": args.g, "n": 0, "value": v.to_records()}, indent=2))
    elif args.format == "latex":
        print(render_pipoly_latex(v))
    else:
        print(v.as_str())
    return 0


def cmd_table(args) -> int:
    _check_reach(args.max_dim, f"--max-dim {_shown(args.max_dim)}")
    _check_path(args.out, "--out")
    table = VolumeTable()
    table.ensure(args.max_dim)
    save_cache(table, args.out)
    print(f"wrote {len(table.signatures())} entries to {args.out}", file=sys.stderr)
    return 0


def cmd_diag_zograf(args) -> int:
    n = args.n
    if n < 0:
        raise ValueError("the number of boundaries --n must be non-negative")
    first = 1 if n >= 1 else 2
    if args.gmax < first:
        raise ValueError(
            f"--gmax {_shown(args.gmax)} is below the first genus {first} for --n {n}; "
            "the table would be empty"
        )
    _check_reach(moduli_dim(args.gmax, max(n, 1)), f"--gmax {_shown(args.gmax)} --n {_shown(n)}")
    table = VolumeTable()
    print("# g  ratio V_{g,n}(0) / [(4 pi^2)^(2g+n-3) (2g+n-3)! / sqrt(g pi)]")
    for g in range(first, args.gmax + 1):
        print(f"{g}  {zograf_ratio(table, g, n):.6f}")
    return 0


def cmd_verify(args) -> int:
    # before any work: a run that has no relation instance to check would
    # pass by checking nothing; the instances are counted without a table
    what = f"verify {args.relation} --max-dim {_shown(args.max_dim)}"
    relations = RELATIONS if args.relation == "all" else (args.relation,)
    if args.relation != "kernels":
        # the least --max-dim at which a named suite has an instance
        least = next(d for d in count() if any(any(relation_instances(r, d)) for r in relations))
        if args.max_dim < least:
            raise ValueError(f"{what} checks no relation instance; use --max-dim {least} or more")
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


class _Parser(argparse.ArgumentParser):
    # every usage error leaves through main's one-line handler, each word
    # that quotes a long argument shortened; subparsers inherit the class
    def error(self, message: str):
        raise ValueError(" ".join(map(_shown, message.split())))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("table", help="export the volume table")
    p.add_argument("--max-dim", type=int, default=6, dest="max_dim")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("diag-zograf", help="large-genus ratio diagnostic")
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_diag_zograf)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # before any work: a negative bound would check or build nothing
        if getattr(args, "max_dim", 0) < 0:
            raise ValueError(f"--max-dim must be non-negative, got {_shown(args.max_dim)}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: a computed volume failed its check: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
