import hashlib
import json
import os
import re
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
# the kernel records are floats whose last digits depend on the numpy
# build, so they are masked; everything else is hashed byte for byte.
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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# cache files


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


def test_cache_rewritten_when_query_adds_entries(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    assert "1,3" not in json.loads(path.read_text())["entries"]
    code, _, _ = run(capsys, "volume", "1", "3", "--cache", str(path))
    assert code == 0
    assert "1,3" in json.loads(path.read_text())["entries"]
    assert os.listdir(tmp_path) == ["cache.json"]


def test_table_out_leaves_no_temporary_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("stale")
    code, _, _ = run(capsys, "table", "--max-dim", "2", "--out", str(path))
    assert code == 0 and json.loads(path.read_text())["entries"]
    assert os.listdir(tmp_path) == ["table.json"]


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
    assert_one_line_error(code, err, "has 4 terms, expected 5")


def v04_cache_with(tmp_path, capsys, edit):
    """A dimension-1 cache whose V_{0,4} term records went through ``edit``."""
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    records = payload["entries"]["0,4"]
    # canonical order: the 2 pi^2 term first, the L_1^2 / 2 term last
    assert records[0]["alpha"] == [0, 0, 0, 0] and records[-1]["alpha"] == [1, 0, 0, 0]
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


def forbid_table_work(monkeypatch):
    from wpvol.recursion import VolumeTable

    def no_work(*args):
        raise AssertionError("the table was built before the arguments were checked")

    monkeypatch.setattr(VolumeTable, "volume", no_work)
    monkeypatch.setattr(VolumeTable, "ensure", no_work)


def test_negative_genus_rejected_before_work(capsys, monkeypatch):
    forbid_table_work(monkeypatch)
    code, _, err = run(capsys, "volume", "-1", "5")
    assert_one_line_error(code, err, "(-1,5) is not a stable signature")


@pytest.mark.parametrize(
    "argv,words",
    [
        (["-1", "0", "0", "0", "0", "0"], "(-1,5) is not a stable signature"),
        (["0", "-1", "2", "0", "0"], "psi exponents must be non-negative"),
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


def test_cache_in_missing_directory_rejected_before_work(tmp_path, capsys, monkeypatch):
    forbid_table_work(monkeypatch)
    path = tmp_path / "missing" / "cache.json"
    code, _, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_one_line_error(code, err, "does not exist")
    code, _, err = run(capsys, "table", "--max-dim", "2", "--out", str(path))
    assert_one_line_error(code, err, "does not exist")


def test_unwritable_output_maps_to_usage_error(tmp_path, capsys):
    # the output path is a directory: the write fails with an OSError
    path = tmp_path / "table.json"
    path.mkdir()
    code, _, err = run(capsys, "table", "--max-dim", "1", "--out", str(path))
    assert_one_line_error(code, err)


def test_import_cli_does_not_load_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, wpvol.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--max-dim", "-1"],
        ["verify", "kernels", "--max-dim", "-1", "--format", "json"],
        ["table", "--max-dim", "-1"],
    ],
)
def test_negative_max_dim_rejected_before_work(tmp_path, capsys, monkeypatch, argv):
    from wpvol import oracle

    def no_kernel_work():
        raise AssertionError("the kernel suite ran before the arguments were checked")

    forbid_table_work(monkeypatch)
    monkeypatch.setattr(oracle, "moment_validation_report", no_kernel_work)
    cache = tmp_path / "cache.json"
    cache.write_text("not a cache")
    out = tmp_path / "table.json"
    argv = argv + (["--out", str(out)] if argv[0] == "table" else [])
    code, stdout, err = run(capsys, *argv, "--cache", str(cache))
    assert stdout == ""
    assert_one_line_error(code, err, "--max-dim must be non-negative")
    assert cache.read_text() == "not a cache"
    assert not out.exists()


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
