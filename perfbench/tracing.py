"""Spans and counters around wpvol's public entry points.

The wrappers are installed from outside the package by rebinding module
and class attributes, so nothing under ``src/`` knows it is being traced.
Every rebinding replaces *all* wpvol module attributes that hold the
original object, which covers names imported into several modules (for
example ``compact_volume`` in both ``wpvol.intersect`` and ``wpvol.cli``).

A span records its name, start, end, parent span and the run id.  Spans
are kept in memory and written as JSON lines when the job ends.  Two
entry points are called too often for one record per call (about 115 000
``h_double_moment`` calls in a dimension-6 build, and every cache hit of
``VolumeTable.volume``); those are *aggregated*: one record per (name,
parent span) with a call count and total seconds.  Calls nested inside an
aggregated call take its record as their parent, so self times stay exact.

Self time of a record is its duration minus the durations of its direct
children; children of one span never overlap because the program is
single-threaded here.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
from collections import Counter
from time import perf_counter


def _wpvol_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wpvol" or name.startswith("wpvol."))]


def rebind(original, replacement) -> None:
    """Point every wpvol module attribute that is ``original`` at
    ``replacement``; a name that moved fails loudly instead of going untraced."""
    found = False
    for mod in _wpvol_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                found = True
    if not found:
        raise RuntimeError(f"no wpvol attribute holds {original!r}")


class Tracer:
    """In-memory span store for one job process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, parent, start, end)
        self.aggregates: dict[tuple, list] = {}  # (name, parent) -> [id, calls, seconds]
        self.counters: Counter = Counter()
        self.values: dict[str, float] = {}
        self.computed: list = []  # (g, n, poly) for each signature computed here
        self.dcon_signatures: list = []
        self._stack: list = [None]
        self._ids = itertools.count(1)

    def call(self, name, fn, args, kwargs):
        """Run ``fn`` inside a span of its own."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, parent, start, end))

    def call_aggregated(self, name, fn, args, kwargs):
        """Run ``fn`` and add its time to the (name, parent) aggregate."""
        parent = self._stack[-1]
        rec = self.aggregates.get((name, parent))
        if rec is None:
            rec = self.aggregates[(name, parent)] = [next(self._ids), 0, 0.0]
        self._stack.append(rec[0])
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] += perf_counter() - start
            rec[1] += 1
            self._stack.pop()

    def wrap(self, name, fn, aggregate=False):
        call = self.call_aggregated if aggregate else self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")
            for (name, parent), (sid, calls, seconds) in self.aggregates.items():
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "parent": parent, "calls": calls,
                                     "seconds": seconds}) + "\n")


def install_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every wpvol layer."""
    from wpvol import cli, intersect, kernels, oracle, recursion
    from wpvol.lpoly import LPoly
    from wpvol.recursion import VolumeTable

    # recursion terms and validation: VolumeTable._compute looks these up
    # as module globals at call time
    for attr in ("a_con_term", "b_term", "validate_volume"):
        fn = getattr(recursion, attr)
        rebind(fn, tracer.wrap("recursion." + attr, fn))

    a_dcon = recursion.a_dcon_term

    def a_dcon_term(g, n, table):
        tracer.dcon_signatures.append((g, n))
        return tracer.call("recursion.a_dcon_term", a_dcon, (g, n, table), {})

    rebind(a_dcon, a_dcon_term)

    # cache hits are frequent and cheap, so they are aggregated; a miss
    # computes the entry and gets a span whose children are the terms
    volume = VolumeTable.volume

    def traced_volume(table, g, n):
        if (g, n) in table:
            return tracer.call_aggregated("recursion.volume.hit", volume, (table, g, n), {})
        poly = tracer.call("recursion.volume", volume, (table, g, n), {})
        tracer.computed.append((g, n, poly))
        return poly

    VolumeTable.volume = traced_volume
    LPoly.integrate_back = tracer.wrap("lpoly.integrate_back", LPoly.integrate_back)

    for fn, name in ((kernels.h_moment, "kernels.h_moment"),
                     (kernels.h_double_moment, "kernels.h_double_moment")):
        rebind(fn, tracer.wrap(name, fn, aggregate=True))

    suite = intersect.run_relation_suite

    def run_relation_suite(table, relation, max_dim):
        records = tracer.call("intersect." + relation, suite, (table, relation, max_dim), {})
        tracer.counters[f"intersect.{relation}.instances"] += len(records)
        return records

    rebind(suite, run_relation_suite)
    rebind(intersect.compact_volume,
           tracer.wrap("intersect.compact_volume", intersect.compact_volume))

    for attr in ("quad_moment", "quad_double_moment", "kernel_identity_report"):
        fn = getattr(oracle, attr)
        rebind(fn, tracer.wrap("oracle." + attr, fn))

    moments = oracle.moment_validation_report

    def moment_validation_report(*args, **kwargs):
        records = tracer.call("oracle.moment_validation_report", moments, args, kwargs)
        worst = max((r["max_abs_dev"] for r in records), default=0.0)
        tracer.values["oracle.max_rel_dev"] = max(worst, tracer.values.get("oracle.max_rel_dev", 0.0))
        return records

    rebind(moments, moment_validation_report)

    rebind(cli.load_cache, tracer.wrap("cli.load_cache", cli.load_cache))
    save = cli.save_cache

    def save_cache(table, path):
        # compare the bytes outside the span, so the span times only the write
        before = _read_bytes(path)
        tracer.call("cli.save_cache", save, (table, path), {})
        after = _read_bytes(path)
        tracer.counters["cli.writes"] += 1
        tracer.counters["cli.writes_unchanged"] += int(before == after)
        tracer.values["cli.cache_bytes"] = len(after or b"")

    rebind(save, save_cache)


def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def install_counts() -> Counter:
    """Count calls into ``PiPoly`` addition and multiplication, the exact
    arithmetic under every recursion term.  A pass of its own: the
    wrappers see about a million calls in a dimension-6 build."""
    from wpvol.exact import PiPoly

    counts: Counter = Counter()

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    add, mul, rmul = PiPoly.__add__, PiPoly.__mul__, PiPoly.__rmul__
    PiPoly.__add__ = counted(add, "exact.pipoly_add.calls")
    PiPoly.__mul__ = counted(mul, "exact.pipoly_mul.calls")
    PiPoly.__rmul__ = counted(rmul, "exact.pipoly_mul.calls")
    return counts


def recursion_counts(tracer: Tracer) -> dict:
    """Work counts for the signatures this process computed, read through
    the public API after the job has finished."""
    from wpvol.recursion import stable_splittings

    bits = 0
    for g, n, poly in tracer.computed:
        for alpha, coeff in poly.items():
            for _k, q in coeff_terms(coeff, 3 * g - 3 + n - sum(alpha)):
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return {
        "recursion.signatures": len(tracer.computed),
        "recursion.terms_stored": sum(len(poly) for _g, _n, poly in tracer.computed),
        "recursion.splittings": sum(len(stable_splittings(g, n))
                                    for g, n in tracer.dcon_signatures),
        "recursion.coeff_bits_max": bits,
    }


def coeff_terms(coeff, implied_k: int):
    """The (k, q) pairs of one volume coefficient, sum of q * pi^(2k).  A
    PiPoly yields its own; a plain rational coefficient is q * pi^(2k) with
    k = 3g - 3 + n - |alpha|, implied by its degree."""
    if hasattr(coeff, "items"):
        return sorted(coeff.items())
    return [(implied_k, coeff)]


def self_times(paths) -> tuple[dict, dict, dict]:
    """Read span files; return per-name self seconds, total seconds and calls."""
    records = []
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    child = Counter()
    for rec in records:
        rec["seconds"] = rec["end"] - rec["start"] if "end" in rec else rec["seconds"]
        if rec["parent"] is not None:
            child[(rec["run"], rec["parent"])] += rec["seconds"]
    own, total, calls = Counter(), Counter(), Counter()
    for rec in records:
        own[rec["name"]] += rec["seconds"] - child[(rec["run"], rec["id"])]
        total[rec["name"]] += rec["seconds"]
        calls[rec["name"]] += rec.get("calls", 1)
    return own, total, calls
