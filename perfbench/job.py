"""One benchmark job, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/job.py MODE REPORT [--instrument none|spans|counts]
                             [--spans FILE] [--run-id ID] [-- ARG ...]

MODE is ``import`` (import wpvol and stop), ``cli`` (call ``wpvol.cli.main``
with the ARGs, as the ``wpvol`` command does) or ``compact`` (print
``compact_volume(table, g)`` for g = 2 .. ARG in one fresh table, as JSON).
The job writes a JSON report to REPORT: import time, peak RSS, the exit
code, kernel-moment cache counts at start and end (the start counts show
that the job began cold), and, when instrumented, the counters of
``tracing.py``.  Spans go to FILE as JSON lines.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _moment_caches(cached: dict) -> dict:
    out = {}
    for name, fn in cached.items():
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("import", "cli", "compact"))
    parser.add_argument("report")
    parser.add_argument("--instrument", choices=("none", "spans", "counts"), default="none")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    split = argv.index("--") if "--" in argv else len(argv)
    opts = parser.parse_args(argv[:split])
    rest = argv[split + 1:]

    start = time.perf_counter()
    import wpvol.cli
    import_s = time.perf_counter() - start
    from wpvol import intersect, kernels, recursion

    # keep references to the cached functions before any wrapper replaces them
    cached = {"h_moment": kernels.h_moment, "h_double_moment": kernels.h_double_moment}
    report = {"import_s": import_s, "moment_caches_start": _moment_caches(cached)}
    tracer = counts = None
    if opts.instrument == "spans":
        import tracing
        tracer = tracing.Tracer(opts.run_id)
        tracing.install_spans(tracer)
    elif opts.instrument == "counts":
        import tracing
        counts = tracing.install_counts()

    code = 0
    try:
        if opts.mode == "cli":
            code = wpvol.cli.main(rest)
        elif opts.mode == "compact":
            table = recursion.VolumeTable()
            values = {str(g): intersect.compact_volume(table, g).as_str()
                      for g in range(2, int(rest[0]) + 1)}
            print(json.dumps(values))
    finally:
        sys.stdout.flush()
        report["exit_code"] = code
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["moment_caches_end"] = _moment_caches(cached)
        if tracer is not None:
            tracer.write(opts.spans)
            report["counters"] = {**tracer.counters, **tracer.values,
                                  **tracing.recursion_counts(tracer)}
        if counts is not None:
            report["counters"] = dict(counts)
        with open(opts.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
