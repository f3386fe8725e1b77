import hashlib
import json
import os
import re
import stat
import subprocess
import sys

import pytest

from wpvol.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# volume


def test_volume_four_boundaries_text(capsys):
    code, out, _ = run(capsys, "volume", "0", "4")
    assert code == 0
    assert "2*pi^2" in out
    assert out.count("1/2*L") == 4


def test_volume_torus_conventions(capsys):
    code, out, _ = run(capsys, "volume", "1", "1")
    assert code == 0 and "1/6*pi^2" in out and "1/24*L1^2" in out
    code, out, _ = run(capsys, "volume", "1", "1", "--internal-convention")
    assert code == 0 and "1/12*pi^2" in out and "1/48*L1^2" in out


def test_volume_json_schema(capsys):
    code, out, _ = run(capsys, "volume", "0", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == 0 and payload["n"] == 4
    assert {"alpha": [0, 0, 0, 0], "pi_power": 2, "coeff": "2"} in payload["terms"]


def test_volume_latex(capsys):
    code, out, _ = run(capsys, "volume", "2", "1", "--format", "latex")
    assert code == 0
    assert r"\frac{1}{442368}" in out and r"\pi^{8}" in out


def test_volume_evaluated_at_zero(capsys):
    code, out, _ = run(capsys, "volume", "1", "1", "--lengths", "0")
    assert code == 0
    assert "1/6*pi^2" in out
    assert "1.64493" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_volume_too_large_for_a_float_rejected(capsys, fmt):
    # the exact value exists, but its float overflowed with a traceback
    code, out, err = run(
        capsys, "volume", "0", "4", "--lengths", "1e400,1,1,1", "--format", fmt
    )
    assert out == ""
    assert_one_line_error(code, err, "--lengths 1e400,1,1,1 is too large for a float")


def digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit >= 5001:
        pytest.skip("no integer digit limit below 5001 digits")
    return limit


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_exact_value_past_the_digit_limit_names_lengths(capsys, fmt):
    # the float exists, but the exact value's 6001-digit denominator cannot
    # be written out; the message named sys.set_int_max_str_digits()
    limit = digit_limit()
    code, out, err = run(
        capsys, "volume", "0", "4", "--lengths", "1e-3000,1,1,1", "--format", fmt
    )
    assert out == ""
    assert_one_line_error(code, err, "--lengths 1e-3000,1,1,1", f"more than {limit} digits")
    assert "set_int_max_str_digits" not in err


def test_length_past_the_digit_limit_names_lengths(capsys):
    limit = digit_limit()
    code, out, err = run(capsys, "volume", "0", "4", "--lengths", "1" * 5001 + ",1,1,1")
    assert out == ""
    assert_one_line_error(code, err, "--lengths 111", f"more than {limit} digits")
    assert "set_int_max_str_digits" not in err


def test_volume_unstable_rejected(capsys):
    code, _, err = run(capsys, "volume", "0", "2")
    assert code == 2 and "stable" in err


def test_volume_zero_boundaries_redirects(capsys):
    code, _, err = run(capsys, "volume", "2", "0")
    assert code == 2 and "compact" in err


def test_volume_bad_lengths(capsys):
    code, _, err = run(capsys, "volume", "0", "4", "--lengths", "1,2")
    assert code == 2 and "expected 4" in err


# ----------------------------------------------------------------------
# intersect / compact / diagnostics


def test_intersect_torus(capsys):
    code, out, _ = run(capsys, "intersect", "1", "1")
    assert code == 0 and "kappa-normalized: 1/24" in out


def test_intersect_genus0(capsys):
    code, out, _ = run(capsys, "intersect", "0", "0", "0", "0")
    assert code == 0 and "kappa-normalized: 1" in out


def test_intersect_degree_mismatch_prints_zero(capsys):
    code, out, err = run(capsys, "intersect", "1", "1", "--kappa", "3")
    assert code == 0
    assert out.strip() == "0"
    assert "zero by degree" in err


def test_compact_genus_two(capsys):
    code, out, _ = run(capsys, "compact", "2")
    assert code == 0 and out.strip() == "43/2160*pi^6"


def test_compact_genus_five(capsys):
    code, out, _ = run(capsys, "compact", "5")
    assert code == 0 and out.strip() == "84374265930915479/355541114880000*pi^24"


def test_compact_rejects_low_genus(capsys):
    code, _, err = run(capsys, "compact", "1")
    assert code == 2 and "genus" in err


def test_diag_zograf_reports_ratios(capsys):
    code, out, _ = run(capsys, "diag-zograf", "--gmax", "3", "--n", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 3
    assert all(float(l.split()[1]) > 0 for l in lines)


def test_diag_zograf_closed_surfaces(capsys):
    # V_{g,0} comes from the boundary-removal relation, not the recursion
    code, out, err = run(capsys, "diag-zograf", "--gmax", "3", "--n", "0")
    assert code == 0, err
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert [l.split()[0] for l in lines] == ["2", "3"]
    assert all(float(l.split()[1]) > 0 for l in lines)


# recorded when zograf_ratio read V_{g,n}(0) off the expanded true volume
ZOGRAF_GOLDEN = {
    0: ["2  1.215190", "3  1.121881", "4  1.086050", "5  1.066666"],
    1: ["1  2.915570", "2  1.152487", "3  1.093494", "4  1.068010", "5  1.053509"],
    2: ["1  1.093339", "2  1.042538", "3  1.029671", "4  1.023178", "5  1.018999"],
}


@pytest.mark.parametrize("n", sorted(ZOGRAF_GOLDEN))
def test_diag_zograf_stdout_pinned(capsys, n):
    code, out, _ = run(capsys, "diag-zograf", "--gmax", "5", "--n", str(n))
    assert code == 0
    header = "# g  ratio V_{g,n}(0) / [(4 pi^2)^(2g+n-3) (2g+n-3)! / sqrt(g pi)]"
    assert out.splitlines() == [header] + ZOGRAF_GOLDEN[n]


# ----------------------------------------------------------------------
# verify


def test_verify_string_small(capsys):
    code, out, _ = run(capsys, "verify", "string", "--max-dim", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "string PASS" in out


def test_verify_all_relations_small(capsys):
    code, out, _ = run(capsys, "verify", "dvv", "--max-dim", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload and all(rec["pass"] for rec in payload)


def test_verify_kernels_suite(capsys):
    code, out, _ = run(capsys, "verify", "kernels")
    assert code == 0
    assert "FAIL" not in out
    assert "quadrature" in out and "dD/dx" in out


# Every output format that renders a coefficient with its pi power.  The
# digest was recorded before volume coefficients were stored as rationals
# with the pi power implied by the weight.  The quadrature deviations in
# the kernel records are floats whose last digits depend on the platform's
# math library, so they are masked; everything else is hashed byte for byte.
GOLDEN_COMMANDS = [
    ["volume", "1", "1"],
    ["volume", "1", "1", "--internal-convention"],
    ["volume", "1", "2"],
    ["volume", "0", "5", "--format", "json"],
    ["volume", "2", "1", "--format", "latex"],
    ["volume", "1", "3", "--format", "latex"],
    ["volume", "0", "4", "--lengths", "1/2,1/2,1,0"],
    ["volume", "1", "2", "--lengths", "1/2,3", "--format", "json"],
    ["volume", "2", "1", "--lengths", "1/2", "--format", "latex"],
    ["intersect", "1", "1"],
    ["intersect", "2", "1"],
    ["intersect", "1", "0", "1", "--kappa", "1"],
    ["compact", "3"],
    ["compact", "3", "--format", "json"],
    ["compact", "3", "--format", "latex"],
    ["verify", "all", "--max-dim", "4", "--format", "json"],
]
GOLDEN_DIGEST = "898541bcc307348d4e1f20ee8bf422d0b823a4dfd8754fed5b0ce0b3df41684f"


def test_stdout_golden_digest(capsys):
    h = hashlib.sha256()
    for argv in GOLDEN_COMMANDS:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        out = re.sub(r'"max_abs_dev": [^,\n]+', '"max_abs_dev": "*"', out)
        h.update(" ".join(argv).encode() + b"\n" + out.encode())
    assert h.hexdigest() == GOLDEN_DIGEST


# The relation suites to dimension 7, recorded from the checks that
# expanded every volume (Do) and dealt labels by bit mask (DVV); the
# orbit-keyed checks must print the same bytes.
RELATION_DIGEST_D7 = "197969e403dcf5a0e509b909b002be0fd496f56f49077077eb5c780e815b130f"


def test_relation_suites_dimension_seven_golden_digest(capsys):
    h = hashlib.sha256()
    for relation in ("string", "dilaton", "dvv", "do-string", "do-dilaton"):
        argv = ["verify", relation, "--max-dim", "7", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        h.update(" ".join(argv).encode() + b"\n" + out.encode())
    assert h.hexdigest() == RELATION_DIGEST_D7


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# cache files


def assert_writes_stdlib_bytes(table, path):
    from wpvol import cli

    cli.save_cache(table, str(path))
    payload = {
        "format": cli.CACHE_FORMAT,
        "version": cli.CACHE_VERSION,
        "tool": f"wpvol {cli.__version__}",
        "convention": cli.CONVENTION,
        "entries": table.to_entries(),
    }
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def test_cache_writer_matches_stdlib_encoder(tmp_path):
    from wpvol.recursion import VolumeTable

    table = VolumeTable()
    table.ensure(7)
    assert_writes_stdlib_bytes(table, tmp_path / "table.json")


def test_cache_writer_edge_cases_match_stdlib_encoder(tmp_path):
    from wpvol.intersect import compact_volume
    from wpvol.recursion import VolumeTable

    assert_writes_stdlib_bytes(VolumeTable(), tmp_path / "empty.json")
    # V_{2,2} and its dependencies: not a whole dimension range
    on_demand = VolumeTable()
    on_demand.volume(2, 2)
    assert_writes_stdlib_bytes(on_demand, tmp_path / "on_demand.json")
    compact = VolumeTable()
    compact_volume(compact, 4)
    assert_writes_stdlib_bytes(compact, tmp_path / "compact.json")
    # n = 1 only: every rest is empty, and no rest sums to more than 0
    ones = {k: v for k, v in compact.to_entries().items() if k.endswith(",1")}
    assert sorted(ones) == ["1,1", "2,1", "3,1", "4,1"]
    assert_writes_stdlib_bytes(VolumeTable.from_entries(ones), tmp_path / "ones.json")


def test_cache_writer_streams_records(tmp_path):
    import tracemalloc

    from wpvol import cli
    from wpvol.recursion import VolumeTable

    table = VolumeTable()
    table.ensure(7)
    tracemalloc.start()
    try:
        cli.save_cache(table, str(tmp_path / "table.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 6.7 MB file, joined before it is written, peaks at about 33 MB
    assert peak < 8_000_000


@pytest.mark.parametrize("max_dim,records", [(6, 411), (7, 753)])
def test_table_file_holds_the_stored_keys(tmp_path, capsys, max_dim, records):
    from wpvol.cli import load_cache
    from wpvol.recursion import VolumeTable

    path = tmp_path / "table.json"
    code, _, _ = run(capsys, "table", "--max-dim", str(max_dim), "--out", str(path))
    entries = json.loads(path.read_text())["entries"]
    assert code == 0 and sum(map(len, entries.values())) == records
    for recs in entries.values():
        assert all(r["alpha"][1:] == sorted(r["alpha"][1:], reverse=True) for r in recs)
    # 1.6 MB at dimension 6 when the file held every term
    assert max_dim != 6 or path.stat().st_size < 100_000
    fresh, reloaded = VolumeTable(), load_cache(str(path))
    fresh.ensure(max_dim)
    assert reloaded.signatures() == fresh.signatures()
    for sig in fresh.signatures():
        assert reloaded.volume(*sig) == fresh.volume(*sig)


def test_table_export_and_reload_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "cache1.json"
    out2 = tmp_path / "cache2.json"
    code, _, err = run(capsys, "table", "--max-dim", "2", "--out", str(out1))
    assert code == 0 and "wrote" in err
    # re-export from the cached file: must round-trip byte-identically
    code, _, _ = run(
        capsys, "table", "--max-dim", "2", "--out", str(out2), "--cache", str(out1)
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cache_convention_mismatch_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, _, _ = run(capsys, "table", "--max-dim", "1", "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    payload["convention"] = "some-other-convention"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "volume", "0", "3", "--cache", str(path))
    assert code == 2 and "convention" in err


def test_cache_corrupted_entry_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, _, _ = run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["entries"]["0,3"][0]["coeff"] = "-1"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "volume", "0", "3", "--cache", str(path))
    assert code != 0


def test_cache_speeds_reuse(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "3", "--out", str(path))
    code, out, _ = run(capsys, "volume", "1", "2", "--cache", str(path))
    assert code == 0 and "1/4*pi^4" in out


def test_cache_untouched_by_warm_query(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "3", "--out", str(path))
    before = path.read_bytes(), path.stat().st_mtime_ns
    code, out, _ = run(capsys, "volume", "1", "2", "--cache", str(path))
    assert code == 0 and "1/4*pi^4" in out
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    assert os.listdir(tmp_path) == ["cache.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "1", "3"],
        ["verify", "string", "--max-dim", "3"],
        ["diag-zograf", "--gmax", "3"],
        ["table", "--max-dim", "3", "--out", "out.json"],
    ],
    ids=["volume", "verify", "diag-zograf", "table"],
)
def test_cache_unchanged_when_a_command_computes_beyond_it(tmp_path, capsys, monkeypatch, argv):
    # each of these rewrote the file with the entries it computed
    monkeypatch.chdir(tmp_path)
    run(capsys, "table", "--max-dim", "1", "--out", "cache.json")
    path = tmp_path / "cache.json"
    assert "1,3" not in json.loads(path.read_text())["entries"]
    before = path.read_bytes(), path.stat().st_mtime_ns
    code, out, err = run(capsys, *argv, "--cache", "cache.json")
    assert code == 0 and (out or "wrote" in err)
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    if argv[0] == "table":
        assert "1,3" in json.loads((tmp_path / "out.json").read_text())["entries"]
        assert sorted(os.listdir(tmp_path)) == ["cache.json", "out.json"]
    else:
        assert os.listdir(tmp_path) == ["cache.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "1", "2"],
        ["intersect", "1", "2", "0"],
        ["compact", "2"],
        ["verify", "string", "--max-dim", "3"],
        ["diag-zograf", "--gmax", "3"],
    ],
    ids=["volume", "intersect", "compact", "verify", "diag-zograf"],
)
def test_command_never_calls_the_table_writer(tmp_path, capsys, monkeypatch, argv):
    # a failed write-back (a full disk, a read-only mount) exited 2 after the
    # command had computed, and often printed, its answer
    from wpvol import cli

    cache = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(cache))
    want = run(capsys, *argv)

    def no_space(table, path):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "save_cache", no_space)
    assert run(capsys, *argv, "--cache", str(cache))[:2] == want[:2]
    assert want[0] == 0 and want[1]


def test_table_out_leaves_no_temporary_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("stale")
    code, _, _ = run(capsys, "table", "--max-dim", "2", "--out", str(path))
    assert code == 0 and json.loads(path.read_text())["entries"]
    assert os.listdir(tmp_path) == ["table.json"]


def test_table_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    # the write replaced the link by a regular file and left the target stale
    links, targets = tmp_path / "links", tmp_path / "targets"
    links.mkdir()
    targets.mkdir()
    link, target = links / "link.json", targets / "target.json"
    target.write_text("old")
    link.symlink_to(target)
    code, _, _ = run(capsys, "table", "--max-dim", "1", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["entries"]
    assert os.listdir(links) == ["link.json"] and os.listdir(targets) == ["target.json"]


def test_cache_through_a_symlink_is_read_and_kept(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    run(capsys, "table", "--max-dim", "3", "--out", str(target))
    link.symlink_to(target)
    before = target.read_bytes(), target.stat().st_mtime_ns
    code, out, _ = run(capsys, "volume", "1", "2", "--cache", str(link))
    assert code == 0 and "1/4*pi^4" in out
    # V_{1,4} is beyond the file: computed, not written back
    code, out, _ = run(capsys, "volume", "1", "4", "--cache", str(link))
    assert code == 0 and out
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert (target.read_bytes(), target.stat().st_mtime_ns) == before
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_symlink_to_a_directory_or_fifo_rejected_before_work(
    tmp_path, capsys, monkeypatch, kind
):
    target = tmp_path if kind == "directory" else make_fifo(tmp_path)
    forbid_table_work(monkeypatch)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    before = sorted(os.listdir(tmp_path))
    code, out, err = run(capsys, "table", "--max-dim", "1", "--out", str(link))
    assert out == ""
    assert_one_line_error(code, err, f"{link}: exists and is not a regular file")
    assert link.is_symlink() and sorted(os.listdir(tmp_path)) == before


def assert_one_line_error(code, err, *words):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(w in err for w in words)


def test_cache_without_entries_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    del payload["entries"]
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "volume", "0", "3", "--cache", str(path))
    assert_one_line_error(code, err, "entries")


def test_cache_holding_a_list_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text("[]")
    code, _, err = run(capsys, "volume", "0", "3", "--cache", str(path))
    assert_one_line_error(code, err, "not a recognized")


@pytest.mark.parametrize("version", [1, 3, None])
def test_cache_of_another_version_rejected(tmp_path, capsys, version):
    # a version-1 file held every term; it was "not a recognized" cache
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["version"] = version
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert out == ""
    assert_one_line_error(
        code, err, f"{path}: ", f"version {version!r}", "expected version 2", "wpvol table"
    )


def test_cache_with_malformed_records_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["entries"]["0,3"] = [{"alpha": [0, 0, 0]}]
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "volume", "0", "3", "--cache", str(path))
    assert_one_line_error(code, err, "malformed")
    path.write_text("{not json")
    code, _, err = run(capsys, "volume", "0", "3", "--cache", str(path))
    assert_one_line_error(code, err, "not a JSON file")


def test_cache_with_pi_power_not_implied_or_repeated_alpha_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    good = json.loads(path.read_text())
    # the V_{0,4} constant term 2 pi^2 claimed as 2 pi^4
    payload = json.loads(json.dumps(good))
    payload["entries"]["0,4"][0]["pi_power"] = 4
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "pi power 4, expected 2")
    payload = json.loads(json.dumps(good))
    payload["entries"]["0,4"].append(payload["entries"]["0,4"][-1])
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "listed twice")


def test_cache_missing_a_term_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    # V_{0,4} without its constant term 2 pi^2: still symmetric and positive
    assert payload["entries"]["0,4"][0]["alpha"] == [0, 0, 0, 0]
    del payload["entries"]["0,4"][0]
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "has no term at (0, 0, 0, 0)")


def test_cache_missing_every_term_of_a_large_entry_rejected_in_small_memory(
    tmp_path, capsys
):
    # V_{0,44} has 1.4 million orbit keys; listing them all before checking
    # the first took 0.7 GB, and 4 more labels cost about 2.5x more
    import tracemalloc

    from wpvol import cli

    path = tmp_path / "cache.json"
    stamps = {"format": cli.CACHE_FORMAT, "version": 2, "convention": cli.CONVENTION}
    record = {"alpha": [0] * 44, "pi_power": 82, "coeff": "1"}
    path.write_text(json.dumps(dict(stamps, entries={"0,44": [record]})))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == ""
    assert_one_line_error(code, err, f"V_{{0,44}} has no term at {(1,) + (0,) * 43}")
    assert peak < 1e6


def test_cache_entry_without_terms_rejected_before_any_key(tmp_path, capsys):
    # no record bounds n: naming the first missing key of V_{0,10^6} wrote
    # a 3 MB error line, and at n = 10^9 that key alone needs 8 GB
    import tracemalloc

    from wpvol import cli

    path = tmp_path / "cache.json"
    stamps = {"format": cli.CACHE_FORMAT, "version": 2, "convention": cli.CONVENTION}
    path.write_text(json.dumps(dict(stamps, entries={"0,1000000": []})))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == ""
    assert_one_line_error(code, err, "entry '0,1000000' holds no terms")
    assert len(err.encode()) < 200
    assert peak < 1e6


def test_cache_nested_past_the_recursion_limit_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert out == ""
    assert_one_line_error(code, err, f"{path}: not a JSON file")


def test_cache_asymmetric_off_the_orbit_keys_rejected(tmp_path, capsys):
    # V_{0,5} with L_3^2 weighted unlike L_2^2: every key (a_1, a_2 >= ...
    # >= a_5) still holds the true coefficient, and the file holds no other
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "2", "--out", str(path))
    payload = json.loads(path.read_text())
    records = payload["entries"]["0,5"]
    assert [0, 1, 0, 0, 0] in [r["alpha"] for r in records]
    records.append({"alpha": [0, 0, 1, 0, 0], "pi_power": 2, "coeff": "7"})
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "volume", "0", "5", "--cache", str(path))
    assert out == ""
    assert_one_line_error(
        code, err, "V_{0,5} has a term at (0, 0, 1, 0, 0), which is not a key"
    )


def test_cache_asymmetric_in_the_first_label_rejected(tmp_path, capsys):
    # L_2^2 weighted unlike L_1^2: the orbit key (0, 1, 0, 0) of V_{0,4}
    # differs from its sorted key (1, 0, 0, 0)
    def edit(records):
        (rec,) = [r for r in records if r["alpha"] == [0, 1, 0, 0]]
        rec["coeff"] = "7"

    path = v04_cache_with(tmp_path, capsys, edit)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert out == ""
    assert_one_line_error(code, err, "V_{0,4} is not label-symmetric")


def v04_cache_with(tmp_path, capsys, edit):
    """A dimension-1 cache whose V_{0,4} term records went through ``edit``."""
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    records = payload["entries"]["0,4"]
    # the orbit keys in canonical order: the 2 pi^2 term first, then L_2^2 / 2
    # and L_1^2 / 2
    assert [r["alpha"] for r in records] == [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    edit(records)
    path.write_text(json.dumps(payload))
    return path


def test_cache_coefficient_with_zero_denominator_rejected(tmp_path, capsys):
    def edit(records):
        records[0]["coeff"] = "1/0"

    path = v04_cache_with(tmp_path, capsys, edit)
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "malformed", "'1/0' with denominator 0")


def test_cache_coefficient_as_json_number_rejected(tmp_path, capsys):
    def edit(records):
        records[-1]["coeff"] = 0.5

    path = v04_cache_with(tmp_path, capsys, edit)
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "malformed", "coefficient 0.5, not a string")


@pytest.mark.parametrize(
    "index,fields",
    [
        # each was read as the term it replaces and served
        (-1, {"alpha": [1.9, 0, 0, 0], "pi_power": 0.5}),
        (-1, {"alpha": [True, False, False, False]}),
        (0, {"pi_power": "2"}),
    ],
)
def test_cache_exponents_and_pi_power_must_be_integers(tmp_path, capsys, index, fields):
    def edit(records):
        records[index].update(fields)

    path = v04_cache_with(tmp_path, capsys, edit)
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "malformed", "must be integers")


@pytest.mark.parametrize(
    "fields,words",
    [
        ({"alpha": [1, 0, 0]}, "has length 3, expected 4"),
        ({"alpha": [-1, 2, 0, 0]}, "negative exponent"),
        # its pi power -2 is the one the weight implies
        ({"alpha": [3, 0, 0, 0], "pi_power": -2}, "exceeds the weight 1"),
    ],
)
def test_cache_exponents_out_of_range_rejected(tmp_path, capsys, fields, words):
    def edit(records):
        records[-1].update(fields)

    path = v04_cache_with(tmp_path, capsys, edit)
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "malformed", words)


@pytest.mark.parametrize("key", ["0,2", "-1,5", "1,0", "01,3"])
def test_cache_key_not_a_stable_signature_rejected(tmp_path, capsys, key):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["entries"][key] = []
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "malformed", f"entry '{key}' is not a stable signature")


@pytest.mark.parametrize(
    "zero,drop,words",
    [
        # a zero off the orbit keys is named as a term the file cannot hold
        ([0, 0, 1, 0], None, "has a term at (0, 0, 1, 0), which is not a key"),
        (None, [0, 1, 0, 0], "has no term at (0, 1, 0, 0)"),
        ([1, 0, 0, 0], [0, 1, 0, 0], "coefficient of (1, 0, 0, 0) is not positive"),
        # a zero at an orbit key is named as a zero, not as a missing term
        ([0, 1, 0, 0], None, "V_{0,4}: coefficient of (0, 1, 0, 0) is not positive"),
    ],
    ids=["zero", "missing", "zero-and-missing", "zero-at-an-orbit-key"],
)
def test_cache_needs_every_term_with_a_positive_coefficient(
    tmp_path, capsys, zero, drop, words
):
    # the record at ``zero``, added if the file has none, reads "0"
    def edit(records):
        records[:] = [rec for rec in records if rec["alpha"] not in (zero, drop)]
        if zero:
            records.append({"alpha": zero, "pi_power": 2 - 2 * sum(zero), "coeff": "0"})

    path = v04_cache_with(tmp_path, capsys, edit)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert out == ""
    assert_one_line_error(code, err, "rejected invalid table data", "V_{0,4}", words)


@pytest.mark.parametrize(
    "coeff,words",
    [("1/x", "Invalid literal for Fraction: '1/x'"), ("1/0", "'1/0' with denominator 0")],
)
def test_cache_malformed_coefficient_off_the_orbit_keys_rejected(
    tmp_path, capsys, coeff, words
):
    # every record is parsed before the volume check names the extra term
    def edit(records):
        records.append({"alpha": [0, 0, 0, 1], "pi_power": 0, "coeff": coeff})

    path = v04_cache_with(tmp_path, capsys, edit)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert out == ""
    assert_one_line_error(code, err, "malformed", words)


def forbid_table_work(monkeypatch):
    from wpvol.recursion import VolumeTable

    def no_work(*args):
        raise AssertionError("the table was built before the arguments were checked")

    monkeypatch.setattr(VolumeTable, "volume", no_work)
    monkeypatch.setattr(VolumeTable, "ensure", no_work)
    monkeypatch.setattr(VolumeTable, "_stored", no_work)


def forbid_kernel_work(monkeypatch):
    from wpvol import oracle

    def no_work():
        raise AssertionError("the kernel suite ran before the arguments were checked")

    monkeypatch.setattr(oracle, "moment_validation_report", no_work)


def test_negative_genus_rejected_before_work(capsys, monkeypatch):
    forbid_table_work(monkeypatch)
    code, _, err = run(capsys, "volume", "-1", "5")
    assert_one_line_error(code, err, "(-1,5) is not a stable signature")


@pytest.mark.parametrize(
    "argv,words",
    [
        (["-1", "0", "0", "0", "0", "0"], "(-1,5) is not a stable signature"),
        (["0", "-1", "2", "0", "0"], "psi exponents must be non-negative"),
        (["1", "1", "--kappa", "-1"], "--kappa must be non-negative, got -1"),
    ],
)
def test_intersect_negative_arguments_rejected_before_work(capsys, monkeypatch, argv, words):
    forbid_table_work(monkeypatch)
    code, out, err = run(capsys, "intersect", *argv)
    assert out == ""
    assert_one_line_error(code, err, words)


def test_diag_zograf_negative_boundary_count_rejected_before_work(capsys, monkeypatch):
    forbid_table_work(monkeypatch)
    code, out, err = run(capsys, "diag-zograf", "--n", "-1")
    assert out == ""
    assert_one_line_error(code, err, "--n must be non-negative")


@pytest.mark.parametrize(
    "argv,words",
    [
        (["--gmax", "-1"], "--gmax -1 is below the first genus 1 for --n 1"),
        (["--gmax", "0"], "--gmax 0 is below the first genus 1 for --n 1"),
        (["--gmax", "1", "--n", "0"], "--gmax 1 is below the first genus 2 for --n 0"),
    ],
)
def test_diag_zograf_empty_genus_range_rejected_before_work(capsys, monkeypatch, argv, words):
    forbid_table_work(monkeypatch)
    code, out, err = run(capsys, "diag-zograf", *argv)
    assert out == ""
    assert_one_line_error(code, err, words)


def test_cache_in_missing_directory_rejected_before_work(tmp_path, capsys, monkeypatch):
    forbid_table_work(monkeypatch)
    path = tmp_path / "missing" / "cache.json"
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "does not exist")
    code, _, err = run(capsys, "table", "--max-dim", "2", "--out", str(path))
    assert_one_line_error(code, err, "does not exist")


TABLE_COMMANDS = {
    "volume": ["volume", "0", "4"],
    "intersect": ["intersect", "1", "1"],
    "compact": ["compact", "2"],
    "verify-all": ["verify", "all", "--max-dim", "2"],
    "verify-string": ["verify", "string", "--max-dim", "2"],
    "diag-zograf": ["diag-zograf", "--gmax", "2"],
    "table": ["table", "--max-dim", "1", "--out", "out.json"],
}


def write_bad_cache(tmp_path, kind):
    path = tmp_path / "cache.json"
    if kind == "not-json":
        path.write_text("not a cache")
    elif kind == "version-1":
        from wpvol import cli

        stamps = {"format": cli.CACHE_FORMAT, "version": 1, "convention": cli.CONVENTION}
        path.write_text(json.dumps(dict(stamps, entries={})))
    elif kind == "directory":
        path.mkdir()
    return path


BAD_CACHE_WORDS = {
    "missing": "No such file",
    "not-json": "not a JSON file",
    "version-1": "version 1",
    "directory": "exists and is not a regular file",
}


@pytest.mark.parametrize("kind", sorted(BAD_CACHE_WORDS))
@pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
def test_bad_cache_rejected_before_work(tmp_path, capsys, monkeypatch, command, kind):
    # verify all ran the whole kernel suite, printing its PASS lines, and a
    # missing file was created by the write-back
    forbid_table_work(monkeypatch)
    forbid_kernel_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    path = write_bad_cache(tmp_path, kind)
    before = sorted(os.listdir(tmp_path))
    code, out, err = run(capsys, *TABLE_COMMANDS[command], "--cache", "cache.json")
    assert out == ""
    assert_one_line_error(code, err, "cache.json", BAD_CACHE_WORDS[kind])
    assert sorted(os.listdir(tmp_path)) == before
    assert kind != "not-json" or path.read_text() == "not a cache"


@pytest.mark.parametrize(
    "argv,option",
    [
        (["table", "--max-dim", "1", "--out", ""], "--out"),
        (["volume", "1", "1", "--cache", ""], "--cache"),
        (["verify", "all", "--max-dim", "2", "--cache", ""], "--cache"),
        (["table", "--max-dim", "1", "--out", "out.json", "--cache", ""], "--cache"),
    ],
    ids=["table-out", "volume-cache", "verify-cache", "table-cache"],
)
def test_empty_path_rejected_before_work(tmp_path, capsys, monkeypatch, argv, option):
    # --out '' named no path in its error, and --cache '' acted as no --cache
    forbid_table_work(monkeypatch)
    forbid_kernel_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_line_error(code, err, f"{option}: the path is empty")
    assert os.listdir(tmp_path) == []


def test_path_not_a_regular_file_rejected_before_work(tmp_path, capsys, monkeypatch):
    # a directory failed only after the build, naming the temporary file
    forbid_table_work(monkeypatch)
    for argv in (
        ["table", "--max-dim", "2", "--out", str(tmp_path)],
        ["volume", "0", "4", "--cache", str(tmp_path)],
    ):
        code, out, err = run(capsys, *argv)
        assert out == ""
        assert_one_line_error(code, err, f"{tmp_path}: exists and is not a regular file")
    assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []


def make_fifo(tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    path = tmp_path / "fifo"
    try:
        os.mkfifo(path)
    except OSError as exc:
        pytest.skip(f"cannot make a FIFO here: {exc}")
    return path


def test_fifo_out_rejected_and_kept(tmp_path, capsys, monkeypatch):
    # the atomic write replaced the FIFO by a regular file and exited 0
    forbid_table_work(monkeypatch)
    fifo = make_fifo(tmp_path)
    code, out, err = run(capsys, "table", "--max-dim", "2", "--out", str(fifo))
    assert out == ""
    assert_one_line_error(code, err, f"{fifo}: exists and is not a regular file")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_fifo_cache_rejected_without_blocking(tmp_path):
    # reading the FIFO blocked forever, so run the command in a process
    # that a timeout can end
    fifo = make_fifo(tmp_path)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "wpvol.cli", "volume", "0", "4", "--cache", str(fifo)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout == ""
    assert_one_line_error(proc.returncode, proc.stderr, f"{fifo}: exists and is not a regular file")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_unwritable_output_maps_to_usage_error(tmp_path, capsys):
    # the output path is a directory: the write fails with an OSError
    path = tmp_path / "table.json"
    path.mkdir()
    code, _, err = run(capsys, "table", "--max-dim", "1", "--out", str(path))
    assert_one_line_error(code, err)


def test_import_cli_does_not_load_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    # numpy is for the oracle only; dataclasses would pull in inspect, ast
    # and dis, about 10 ms of every process's start-up
    probe = (
        "import sys, wpvol.cli; "
        "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_verify_runs_without_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    # numpy is a test dependency only: with it blocked, importing the
    # oracle and running every kernel and relation check still works
    probe = (
        "import sys, wpvol.oracle; assert 'numpy' not in sys.modules; "
        "sys.modules['numpy'] = None; "
        "from wpvol.cli import main; "
        "sys.exit(main(['verify', 'all', '--max-dim', '4']))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("kernels PASS ") == 94
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--max-dim", "-1"],
        ["verify", "kernels", "--max-dim", "-1", "--format", "json"],
        ["table", "--max-dim", "-1"],
    ],
)
def test_negative_max_dim_rejected_before_work(tmp_path, capsys, monkeypatch, argv):
    forbid_table_work(monkeypatch)
    forbid_kernel_work(monkeypatch)
    cache = tmp_path / "cache.json"
    cache.write_text("not a cache")
    out = tmp_path / "table.json"
    argv = argv + (["--out", str(out)] if argv[0] == "table" else [])
    code, stdout, err = run(capsys, *argv, "--cache", str(cache))
    assert stdout == ""
    assert_one_line_error(code, err, "--max-dim must be non-negative")
    assert cache.read_text() == "not a cache"
    assert not out.exists()


@pytest.mark.parametrize(
    "relation", ["string", "dilaton", "dvv", "do-string", "do-dilaton", "all"]
)
def test_relation_suite_without_instances_rejected_before_work(
    tmp_path, capsys, monkeypatch, relation
):
    # at --max-dim 0 no suite has an instance: a pass would check nothing
    forbid_table_work(monkeypatch)
    forbid_kernel_work(monkeypatch)
    cache = tmp_path / "cache.json"
    cache.write_text("not a cache")
    argv = ["verify", relation, "--max-dim", "0", "--cache", str(cache)]
    code, stdout, err = run(capsys, *argv)
    assert stdout == ""
    assert_one_line_error(code, err, f"verify {relation} --max-dim 0", "no relation")
    assert cache.read_text() == "not a cache"


def test_kernel_suite_needs_no_dimension(capsys, monkeypatch):
    from wpvol import oracle

    forbid_table_work(monkeypatch)
    monkeypatch.setattr(oracle, "moment_validation_report", lambda: [])
    monkeypatch.setattr(oracle, "kernel_identity_report", lambda: [])
    code, _, err = run(capsys, "verify", "kernels", "--max-dim", "0")
    assert code == 0 and err == ""


def test_wpvol_cache_environment_variable_is_ignored(tmp_path, capsys, monkeypatch):
    unread = tmp_path / "unread.json"
    unread.write_text("not a cache")
    unwritten = tmp_path / "unwritten.json"
    for path in (unread, unwritten):
        monkeypatch.setenv("WPVOL_CACHE", str(path))
        code, out, _ = run(capsys, "volume", "0", "4")
        assert code == 0 and "2*pi^2" in out
    assert unread.read_text() == "not a cache"
    assert not unwritten.exists()
