"""The wpvol benchmark: four workloads on the package's user-facing products.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one generator process, closed loop, one client at a time):

* ``build-d6``       a cold ``wpvol table --max-dim 6 --out FILE`` per job
* ``compact-g6``     a cold ``compact_volume`` for g = 2..6 in one fresh table
* ``verify-warm-d6`` ``wpvol verify all --max-dim 6`` against a warm cache
* ``query-warm-d6``  seeded short CLI queries against the warm cache

Every job is a fresh interpreter running ``job.py``, so no module cache
survives from one repetition to the next.  With ``--trace 0`` the run
times the end-to-end metrics; with ``--trace 1`` it runs each job three
times (plain, with spans, with arithmetic call counts) and reports the
per-layer breakdown and the tracing overhead.  Every job's output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

from tracing import coeff_terms, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("build-d6", "compact-g6", "verify-warm-d6", "query-warm-d6")
WARM = ("verify-warm-d6", "query-warm-d6")

# "smoke" is a tiny size for smoke.py; benchmark runs use "full".
SIZES = {
    "full": {
        "max_dim": 6, "gmax": 6,
        # a warm set-up is a whole dimension-6 build, so it runs twice, not five times
        "setup_reps": {"cold": 5, "warm": 2},
        # with 30 queries, ten lie beyond the 67th percentile of query latency
        "min_jobs": {"build-d6": 2, "compact-g6": 3, "verify-warm-d6": 2, "query-warm-d6": 30},
        "trace_queries": 10,
    },
    "smoke": {
        "max_dim": 4, "gmax": 3, "setup_reps": {"cold": 2, "warm": 2},
        "min_jobs": {"build-d6": 1, "compact-g6": 1, "verify-warm-d6": 1, "query-warm-d6": 6},
        "trace_queries": 3,
    },
}
# a run must end within 180 s
MEASURE_CAP_S = 110.0
JOB_TIMEOUT_S = 100.0

END_TO_END = {
    "wall_s": "s",
    "wall_s.p67": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RELATIONS = ("string", "dilaton", "dvv", "do-string", "do-dilaton")
PER_LAYER = {
    "recursion.a_con.self_s": "s",
    "recursion.a_dcon.self_s": "s",
    "recursion.b.self_s": "s",
    "recursion.volume.self_s": "s",
    "recursion.validate_s": "s",
    "recursion.signatures": "count",
    "recursion.terms_stored": "count",
    "recursion.splittings": "count",
    "recursion.coeff_bits_max": "bits",
    "lpoly.integrate_back_s": "s",
    "exact.pipoly_add.calls": "count",
    "exact.pipoly_mul.calls": "count",
    "kernels.h_moment.hits": "count",
    "kernels.h_moment.misses": "count",
    "kernels.h_double_moment.hits": "count",
    "kernels.h_double_moment.misses": "count",
    "kernels.moment_s": "s",
    **{f"intersect.{rel}.{m}": u for rel in RELATIONS for m, u in (("s", "s"), ("instances", "count"))},
    "intersect.compact.self_s": "s",
    "oracle.moments_s": "s",
    "oracle.identities_s": "s",
    "oracle.quad_calls": "count",
    "oracle.max_rel_dev": "ratio",
    "cli.import_s": "s",
    "cli.load_cache_s": "s",
    "cli.save_cache_s": "s",
    "cli.cache_bytes": "bytes",
    "cli.writes": "count",
    "cli.writes_unchanged": "count",
    "trace.overhead_s": "s",
}

# published values, independent of this code base
V04_TRUE = {(0, 0, 0, 0): [(1, "2")], **{tuple(int(i == j) for i in range(4)): [(0, "1/2")] for j in range(4)}}
V11_TRUE = {(0,): [(1, "1/6")], (1,): [(0, "1/24")]}
COMPACT_GOLDENS = {  # V_{g,0}, g = 2..5 (Zograf; the acceptance suite's criterion 2)
    "2": "43/2160*pi^6",
    "3": "176557/1209600*pi^12",
    "4": "1959225867017/493807104000*pi^18",
    "5": "84374265930915479/355541114880000*pi^24",
}
LENGTH_PATTERNS = (lambda n: ["0"] * n, lambda n: ["1"] * n,
                   lambda n: [str(i) for i in range(1, n + 1)], lambda n: ["1/2"] * n)


# ----------------------------------------------------------------------
# inputs


def signatures(max_dim: int) -> list[tuple[int, int]]:
    """Stable (g, n), n >= 1, with 3g - 3 + n <= max_dim."""
    return [(g, n) for g in range(max_dim // 3 + 2) for n in range(1, max_dim + 4)
            if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= max_dim]


def _partitions(total: int, parts: int, cap: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total), -1, -1):
        for tail in _partitions(total - first, parts - 1, first):
            yield (first,) + tail


def query_space(max_dim: int) -> dict[str, list[str]]:
    """Every query the query workload can draw, by kind; all of them read
    only volumes inside a dimension-``max_dim`` cache."""
    sigs = signatures(max_dim)
    space = {
        "volume": [f"volume {g} {n}" for g, n in sigs],
        "lengths": [f"volume {g} {n} --lengths {','.join(p(n))}"
                    for g, n in sigs for p in LENGTH_PATTERNS],
        "latex": [f"volume {g} {n} --format latex" for g, n in sigs],
        "intersect": [f"intersect {g} " + " ".join(map(str, alpha))
                      for g, n in sigs for t in range(3 * g - 3 + n + 1)
                      for alpha in _partitions(t, n, t)],
        "compact": [f"compact {g}" for g in range(2, max_dim) if 3 * g - 2 <= max_dim],
    }
    return space


def query_sequence(seed: int, max_dim: int):
    """Endless seeded query stream.  Each block of five queries has one of
    each kind in shuffled order, so every seed sees the same mix of kinds;
    the query within a kind is drawn uniformly."""
    space = query_space(max_dim)
    kinds = sorted(space)
    rng = random.Random(seed)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield rng.choice(space[kind])


# ----------------------------------------------------------------------
# output checks


def table_digest(table) -> dict:
    """sha256 over every coefficient of every entry, read through
    ``VolumeTable.volume(...).items()``, with entry and term counts."""
    h = hashlib.sha256()
    terms = 0
    sigs = sorted(table.signatures())
    for g, n in sigs:
        d = 3 * g - 3 + n
        for alpha, coeff in sorted(table.volume(g, n).items()):
            terms += 1
            for k, q in coeff_terms(coeff, d - sum(alpha)):
                h.update(f"{g},{n} {list(alpha)} {k} {q}\n".encode())
    return {"digest": h.hexdigest(), "signatures": len(sigs), "terms": terms}


def _true_terms(table, g: int, n: int) -> dict:
    d = 3 * g - 3 + n
    return {alpha: [(k, str(q)) for k, q in coeff_terms(c, d - sum(alpha))]
            for alpha, c in table.true_volume(g, n).items()}


def check_table_file(path: str, expected: dict) -> list[str]:
    from wpvol.cli import load_cache

    table = load_cache(path)
    problems = []
    got = table_digest(table)
    if got != expected["table"]:
        problems.append(f"table digest {got} != {expected['table']}")
    if _true_terms(table, 0, 4) != V04_TRUE:
        problems.append("V_{0,4} golden")
    if _true_terms(table, 1, 1) != V11_TRUE:
        problems.append("V_{1,1} golden")
    return problems


def check_compact(stdout: bytes, expected: dict, gmax: int) -> list[str]:
    values = json.loads(stdout)
    want = {g: v for g, v in COMPACT_GOLDENS.items() if int(g) <= gmax}
    want.update(expected["compact"])
    return [f"V_{{{g},0}} = {values.get(g)} != {v}" for g, v in want.items() if values.get(g) != v]


def check_verify(stdout: bytes, expected: dict) -> list[str]:
    lines = stdout.decode().splitlines()
    counts = Counter(line.split()[0] for line in lines)
    problems = [f"{rel}: {counts[rel]} instances, expected {n}"
                for rel, n in expected["verify"].items() if counts[rel] != n]
    problems += [f"not passed: {line}" for line in lines if line.split()[1] != "PASS"]
    return problems


def query_digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:32]


# ----------------------------------------------------------------------
# running jobs


class Job:
    __slots__ = ("wall", "returncode", "report", "stdout", "spans", "problems")


class Bench:
    def __init__(self, workload: str, seed: int, size: str, expected: dict, work: str):
        self.workload = workload
        self.seed = seed
        self.cfg = SIZES[size]
        self.expected_all = expected
        self.expected = expected["sizes"][size]
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "WPVOL_CACHE"}
        # one generator thread: keep BLAS in the oracle single-threaded too
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self._ids = itertools.count()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pristine = None
        self.queries = query_sequence(seed, self.cfg["max_dim"])

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def job(self, mode: str, args: list[str], instrument: str = "none") -> Job:
        i = next(self._ids)
        out, report, spans = self.path(f"out{i}"), self.path(f"report{i}.json"), self.path(f"spans{i}.jsonl")
        cmd = [sys.executable, JOB, mode, report, "--instrument", instrument,
               "--spans", spans, "--run-id", f"{self.workload}/{self.seed}/{i}", "--", *args]
        job = Job()
        with open(out, "wb") as fo, open(self.path(f"err{i}"), "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env)
            # a blocking wait sees the exit at once; subprocess's wait with a
            # timeout polls, which would round every job time up by up to 50 ms
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                job.returncode = proc.wait()
            finally:
                timer.cancel()
            job.wall = time.perf_counter() - start
        with open(out, "rb") as fh:
            job.stdout = fh.read()
        try:
            with open(report, encoding="utf-8") as fh:
                job.report = json.load(fh)
        except (OSError, ValueError):
            job.report = {}
        job.spans = spans
        job.problems = []
        if job.returncode != 0:
            with open(self.path(f"err{i}"), encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            job.problems.append(f"{mode} {' '.join(args)}: exit {job.returncode} {tail}")
        start_caches = job.report.get("moment_caches_start", {})
        if any(c["currsize"] for c in start_caches.values()):
            job.problems.append(f"job did not start cold: {start_caches}")
        return job

    def checked(self, job: Job, check) -> Job:
        """Count one attempted operation; apply ``check`` if the job ran."""
        self.attempted += 1
        if not job.problems:
            try:
                job.problems = check(job)
            except Exception as exc:  # a malformed output is a failed check
                job.problems = [f"check raised {exc!r}"]
        self.failed += bool(job.problems)
        self.failures.extend(job.problems[:3])
        return job

    # set-up -----------------------------------------------------------

    def setup_once(self, i: int) -> float:
        if self.workload not in WARM:
            job = self.job("import", [])
            if job.problems:
                raise SystemExit(f"set-up failed: {job.problems}")
            return job.wall
        out = self.path(f"warm{i}.json")
        job = self.job("cli", ["table", "--max-dim", str(self.cfg["max_dim"]), "--out", out])
        if job.problems:
            raise SystemExit(f"set-up failed: {job.problems}")
        if self.pristine is None:
            self.checked(job, lambda j: check_table_file(out, self.expected))
            self.pristine = out
        return job.wall

    def setup(self, reps: int) -> float:
        return statistics.median(self.setup_once(i) for i in range(reps))

    # one operation per workload ---------------------------------------

    def operation(self, instrument: str = "none", query: str | None = None) -> Job:
        dim = str(self.cfg["max_dim"])
        if self.workload == "build-d6":
            out = self.path("table.json")
            if os.path.exists(out):
                os.remove(out)
            job = self.job("cli", ["table", "--max-dim", dim, "--out", out], instrument)
            return self.checked(job, lambda j: check_table_file(out, self.expected))
        if self.workload == "compact-g6":
            gmax = self.cfg["gmax"]
            job = self.job("compact", [str(gmax)], instrument)
            return self.checked(job, lambda j: check_compact(j.stdout, self.expected, gmax))
        # warm workloads: every operation starts from the same cache bytes
        cache = self.path("cache.json")
        shutil.copyfile(self.pristine, cache)
        if self.workload == "verify-warm-d6":
            job = self.job("cli", ["verify", "all", "--max-dim", dim, "--cache", cache], instrument)
            return self.checked(job, lambda j: check_verify(j.stdout, self.expected))
        if query is None:
            query = next(self.queries)
        job = self.job("cli", query.split() + ["--cache", cache], instrument)
        want = self.expected_all["queries"].get(query)
        return self.checked(job, lambda j: [] if query_digest(j.stdout) == want
                            else [f"output of '{query}' differs"])

    # the two kinds of run ---------------------------------------------

    def measure(self, seconds: float) -> dict:
        setup_s = self.setup(self.cfg["setup_reps"]["warm" if self.workload in WARM else "cold"])
        min_jobs = self.cfg["min_jobs"][self.workload]
        jobs: list[Job] = []
        start = time.perf_counter()
        while len(jobs) < min_jobs or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > MEASURE_CAP_S:
                break
            jobs.append(self.operation())
        walls = [j.wall for j in jobs]
        rss = [j.report.get("maxrss_kb", 0) / 1024 for j in jobs]
        p67 = statistics.quantiles(walls, n=3, method="inclusive")[1] if len(walls) > 1 else walls[0]
        print(f"# {len(jobs)} jobs; kernel caches at job start: "
              f"{jobs[0].report.get('moment_caches_start')}")
        return {"wall_s": statistics.median(walls), "wall_s.p67": p67,
                "setup_s": setup_s, "peak_rss_mb": statistics.median(rss)}

    def trace(self) -> dict:
        if self.workload in WARM:
            self.setup_once(0)
        count = self.cfg["trace_queries"] if self.workload == "query-warm-d6" else 1
        queries = [next(self.queries) for _ in range(count)] if self.workload == "query-warm-d6" else [None]
        passes = {}
        for instrument in ("none", "spans", "counts"):
            passes[instrument] = [self.operation(instrument, q) for q in queries]
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        with open(os.path.join(WORK, "traces", f"{self.workload}.jsonl"), "wb") as out:
            for job in passes["spans"]:
                if os.path.exists(job.spans):
                    with open(job.spans, "rb") as fh:
                        shutil.copyfileobj(fh, out)
        return layer_metrics(passes, count)


def layer_metrics(passes: dict, count: int) -> dict:
    """Per-layer metrics, as means per operation over ``count`` operations."""
    own, total, calls = self_times(j.spans for j in passes["spans"])
    counters = Counter()
    for j in passes["spans"] + passes["counts"]:
        for key, value in j.report.get("counters", {}).items():
            if key in ("oracle.max_rel_dev", "cli.cache_bytes", "recursion.coeff_bits_max"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value / count
    caches = Counter()
    for j in passes["none"]:
        for name, info in j.report.get("moment_caches_end", {}).items():
            caches[f"kernels.{name}.hits"] += info["hits"] / count
            caches[f"kernels.{name}.misses"] += info["misses"] / count

    def per_op(counter, name):
        return counter[name] / count

    metrics = {
        "recursion.a_con.self_s": per_op(own, "recursion.a_con_term"),
        "recursion.a_dcon.self_s": per_op(own, "recursion.a_dcon_term"),
        "recursion.b.self_s": per_op(own, "recursion.b_term"),
        "recursion.volume.self_s": (own["recursion.volume"] + own["recursion.volume.hit"]) / count,
        "recursion.validate_s": per_op(total, "recursion.validate_volume"),
        "lpoly.integrate_back_s": per_op(total, "lpoly.integrate_back"),
        "kernels.moment_s": (own["kernels.h_moment"] + own["kernels.h_double_moment"]) / count,
        "intersect.compact.self_s": per_op(own, "intersect.compact_volume"),
        "oracle.moments_s": per_op(total, "oracle.moment_validation_report"),
        "oracle.identities_s": per_op(total, "oracle.kernel_identity_report"),
        "oracle.quad_calls": (calls["oracle.quad_moment"] + calls["oracle.quad_double_moment"]) / count,
        "cli.import_s": statistics.mean(j.report.get("import_s", 0.0) for j in passes["none"]),
        "cli.load_cache_s": per_op(total, "cli.load_cache"),
        "cli.save_cache_s": per_op(total, "cli.save_cache"),
        "trace.overhead_s": (sum(j.wall for j in passes["spans"])
                             - sum(j.wall for j in passes["none"])) / count,
    }
    for rel in RELATIONS:
        metrics[f"intersect.{rel}.s"] = per_op(total, f"intersect.{rel}")
    metrics.update(caches)
    for name in PER_LAYER:
        metrics.setdefault(name, counters[name])
    return metrics


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="problem size; 'smoke' is a tiny one for smoke.py")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="recorded outputs to check against (see record.py)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wpvol", "cli.py")):
        print(f"error: no wpvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        bench = Bench(args.workload, args.seed, args.size, expected, work)
        if args.trace:
            values, units = bench.trace(), PER_LAYER
        else:
            values, units = bench.measure(args.seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.failures[:20]:
        print(f"# FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"fail_frac {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} operations)")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
