"""Record the outputs that run.py checks, from the program as it is now.

    python3 perfbench/record.py            # rewrites perfbench/expected.json

Run it only when an output is meant to change, and say so in the change
that does it.  Everything is computed in this one process; the query
outputs are printed by ``wpvol.cli.main`` against a table loaded once,
since a query prints the same text whichever warm cache it reads.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

from run import HERE, ROOT, SIZES, SRC, query_digest, query_space, table_digest

sys.path.insert(0, SRC)

from wpvol import cli  # noqa: E402
from wpvol.intersect import compact_volume  # noqa: E402
from wpvol.recursion import VolumeTable  # noqa: E402


def _stdout_of(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"wpvol {' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def record_size(cfg: dict) -> tuple[dict, VolumeTable]:
    table = VolumeTable()
    table.ensure(cfg["max_dim"])
    compact_table = VolumeTable()
    compact = {str(g): compact_volume(compact_table, g).as_str()
               for g in range(2, cfg["gmax"] + 1)}
    lines = _stdout_of(["verify", "all", "--max-dim", str(cfg["max_dim"])]).decode().splitlines()
    verify: dict[str, int] = {}
    for line in lines:
        verify[line.split()[0]] = verify.get(line.split()[0], 0) + 1
    return {"table": table_digest(table), "compact": compact, "verify": verify}, table


def main() -> None:
    sizes, tables = {}, {}
    for name, cfg in SIZES.items():
        sizes[name], tables[name] = record_size(cfg)

    # the full size's query space contains the smoke size's
    table = tables["full"]
    cli.load_cache = lambda path, validate=True: table
    cli.save_cache = lambda t, path: None
    queries = {}
    for kind in query_space(SIZES["full"]["max_dim"]).values():
        for query in kind:
            queries[query] = query_digest(_stdout_of(query.split() + ["--cache", os.devnull]))

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    payload = {"program_commit": commit, "sizes": sizes, "queries": queries}
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
