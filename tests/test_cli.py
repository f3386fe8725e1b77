import hashlib
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import time

import pytest

from wpvol.cli import MAX_DIM, main
from wpvol.recursion import VolumeTable, moduli_dim


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
    # an integer coefficient is written without a fraction
    code, out, _ = run(capsys, "volume", "0", "4", "--format", "latex")
    assert code == 0
    assert out == (
        r"2\pi^{2} + \frac{1}{2} L_{4}^{2} + \frac{1}{2} L_{3}^{2}"
        r" + \frac{1}{2} L_{2}^{2} + \frac{1}{2} L_{1}^{2}" "\n"
    )


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


@pytest.mark.parametrize(
    "g, cli_message, pair_message",
    [
        (0, "(0,0) is not a stable signature", None),
        (1, "(1,0) is not a stable signature", "(1,0) is not a stable signature"),
        (
            2,
            "closed surfaces have no boundary polynomial; use 'compact'",
            "(2,0): closed-surface volumes come from the boundary removal relation",
        ),
    ],
    ids=["g0", "g1", "g2"],
)
def test_closed_signatures_name_their_route(capsys, g, cli_message, pair_message):
    # only a stable closed surface, g >= 2, is pointed to 'compact'
    code, out, err = run(capsys, "volume", str(g), "0")
    assert out == ""
    assert_one_line_error(code, err, cli_message)
    t = VolumeTable()
    if pair_message is None:
        # |alpha| = 0 > 3g - 3: off range, read as (0, 1)
        assert t.intersection_pair(g, ()) == (0, 1)
    else:
        with pytest.raises(ValueError, match=re.escape(pair_message)):
            t.intersection_pair(g, ())
    assert t.signatures() == []


def test_volume_bad_lengths(capsys):
    code, _, err = run(capsys, "volume", "0", "4", "--lengths", "1,2")
    assert code == 2 and "expected 4" in err


@pytest.mark.parametrize(
    "lengths,words",
    [
        ("1,x,1,1", "bad length list: Invalid literal for Fraction: 'x'"),
        # a leading -1 would be read as an option
        ("1,-1,1,1", "boundary lengths must be non-negative"),
    ],
    ids=["not-a-number", "negative"],
)
def test_volume_lengths_not_non_negative_rationals_rejected(capsys, lengths, words):
    code, out, err = run(capsys, "volume", "0", "4", "--lengths", lengths)
    assert out == ""
    assert_one_line_error(code, err, words)


def test_long_length_that_is_not_a_number_named_in_one_short_line(capsys):
    # Fraction's message quoted the entry whole: a 100 057-byte line
    code, out, err = run(capsys, "volume", "0", "4", "--lengths", "x" * 100_000 + ",1,1,1")
    assert out == ""
    assert_one_line_error(
        code, err, "bad length list: Invalid literal for Fraction: 'xxxxxxxxxxxxxxxxxxx...(100002 characters)"
    )
    assert len(err.encode()) < 250


# ----------------------------------------------------------------------
# intersect / compact / diagnostics


def test_intersect_torus(capsys):
    code, out, _ = run(capsys, "intersect", "1", "1")
    assert code == 0 and "kappa-normalized: 1/24" in out


def test_intersect_genus0(capsys):
    code, out, _ = run(capsys, "intersect", "0", "0", "0", "0")
    assert code == 0 and "kappa-normalized: 1" in out


def test_intersect_needs_an_alpha(capsys):
    # alpha takes one or more exponents, so argparse rejects an empty one
    code, out, err = run(capsys, "intersect", "2")
    assert out == ""
    assert_one_line_error(code, err, "the following arguments are required: alpha")


def test_intersect_genus_two_top_correlator(capsys):
    code, out, _ = run(capsys, "intersect", "2", "4")
    assert code == 0
    assert "kappa-normalized: 1/1152  (kappa_1 power 0)" in out.splitlines()


def test_intersect_alpha_past_the_dimension_prints_zero(capsys):
    # named as such, never as a negative kappa power
    code, out, err = run(capsys, "intersect", "0", "1", "1", "1", "1")
    assert (code, out) == (0, "0\n")
    assert err == "note: |alpha| exceeds 3g-3+n = 1; the pairing is zero by degree\n"


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


def test_verify_text_names_both_sides_of_each_failure(capsys, monkeypatch):
    # r_2 doubled in the build only: every volume passes its check, and
    # do-string fails at 19 of its 20 instances
    from wpvol import recursion

    moment_constant = recursion.moment_constant
    monkeypatch.setattr(
        recursion, "moment_constant", lambda j: moment_constant(j) * (2 if j == 2 else 1)
    )
    code, out, err = run(capsys, "verify", "do-string", "--max-dim", "8")
    failed = [line for line in out.splitlines() if " FAIL " in line]
    assert code == 1 and err == "# do-string: 1/20 passed\n"
    assert len(failed) == 19
    assert all(re.fullmatch(r"do-string FAIL g=\d+ n=\d+ lhs=.+ rhs=.+", f) for f in failed)


def test_verify_kernels_suite(capsys):
    code, out, _ = run(capsys, "verify", "kernels")
    assert code == 0
    assert "FAIL" not in out
    assert "quadrature" in out and "dD/dx" in out
    # 90 quadrature records and four identity checks
    assert sum(line.startswith("kernels PASS ") for line in out.splitlines()) == 94


# Every output format that renders a coefficient with its pi power.  The
# digest was recorded before volume coefficients were stored as rationals
# with the pi power implied by the weight.  The quadrature deviations in
# the kernel records are floats whose last digits depend on the platform's
# math library, so they are masked; everything else is hashed byte for byte.
# Re-recorded when the Do sides came to be written on their fully sorted
# keys alone (898541bc... when they were written at every ordering), and
# when verify all gained the two-point relation (1fecbfad... before, which
# is also the digest of this output with its two two-point records removed),
# and when intersect lost --kappa (43d6605b... with "intersect 1 0 1 --kappa
# 1", whose output is the same bytes).
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
    ["intersect", "1", "0", "1"],
    ["compact", "3"],
    ["compact", "3", "--format", "json"],
    ["compact", "3", "--format", "latex"],
    ["verify", "all", "--max-dim", "4", "--format", "json"],
]
GOLDEN_DIGEST = "4e27b908b06728e5d9745354e27885f2d5a6596b60fe60ee1f27deb7b6387418"


def test_stdout_golden_digest(capsys):
    h = hashlib.sha256()
    for argv in GOLDEN_COMMANDS:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        out = re.sub(r'"max_abs_dev": [^,\n]+', '"max_abs_dev": "*"', out)
        h.update(" ".join(argv).encode() + b"\n" + out.encode())
    assert h.hexdigest() == GOLDEN_DIGEST


# The relation suites to dimension 7, recorded from the checks that
# expanded every volume (Do) and dealt labels by bit mask (DVV), with each
# Do side written at every ordering of its keys; the orbit-keyed checks
# write a Do side on its fully sorted keys alone.
RELATION_DIGEST_D7 = "5af7814e8666dfc25b50842ec83321869447460db8de351f41375582ccba82d5"
RELATION_DIGEST_D7_EXPANDED = "197969e403dcf5a0e509b909b002be0fd496f56f49077077eb5c780e815b130f"


def relation_suites_dimension_seven(capsys):
    for relation in ("string", "dilaton", "dvv", "do-string", "do-dilaton"):
        argv = ["verify", relation, "--max-dim", "7", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        yield argv, out


def test_relation_suites_dimension_seven_golden_digest(capsys):
    h = hashlib.sha256()
    for argv, out in relation_suites_dimension_seven(capsys):
        h.update(" ".join(argv).encode() + b"\n" + out.encode())
    assert h.hexdigest() == RELATION_DIGEST_D7


def expanded_side(text):
    # a Do side written on its fully sorted keys, as it was written at every
    # ordering of each key, in graded-lex order
    from wpvol.lpoly import grlex_key
    from wpvol.recursion import _orderings

    if text == "0":
        return text
    memo, coeffs = {}, {}
    for item in text.split("; "):
        key, coeff = item.split(": ")
        sorted_key = tuple(json.loads(key[2:]))
        assert list(sorted_key) == sorted(sorted_key, reverse=True), text
        for alpha in _orderings(sorted_key, memo):
            coeffs[alpha] = coeff
    return "; ".join(f"L^{list(a)}: {coeffs[a]}" for a in sorted(coeffs, key=grlex_key))


def test_sorted_key_do_sides_expand_to_every_ordering(capsys):
    h, sides = hashlib.sha256(), 0
    for argv, out in relation_suites_dimension_seven(capsys):
        records = json.loads(out)
        for rec in records:
            if rec["relation"].startswith("do-"):
                rec["lhs"], rec["rhs"] = expanded_side(rec["lhs"]), expanded_side(rec["rhs"])
                sides += 2
        h.update(" ".join(argv).encode() + b"\n" + (json.dumps(records, indent=2) + "\n").encode())
    assert sides == 2 * (16 + 16)
    assert h.hexdigest() == RELATION_DIGEST_D7_EXPANDED


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "verify", "nonsense")
    assert out == ""
    assert_one_line_error(code, err, "argument relation: invalid choice: 'nonsense'")


@pytest.mark.parametrize(
    "argv,words",
    [
        (["volume", "1" * 5000, "1"], "argument g: invalid int value: '1111111111111111111...(5002 characters)"),
        (["verify", "x" * 5000], "argument relation: invalid choice: 'xxxxxxxxxxxxxxxxxxx...(5002 characters)"),
        (["verify", "all", "--max-dim", "x" * 5000], "argument --max-dim: invalid int value: 'xxx"),
        (["volume"], "the following arguments are required: g, n"),
        (["volume", "1", "1", "a\nb", "--bogus"], "unrecognized arguments: a b --bogus"),
        ([], "the following arguments are required: command"),
        # each builds the volumes it reads, so a table file changed none of its output
        (["table", "--out", "out.json", "--cache", "in.json"], "unrecognized arguments: --cache in.json"),
        (["diag-zograf", "--cache", "in.json"], "unrecognized arguments: --cache in.json"),
    ],
    ids=[
        "long-int", "long-choice", "long-option-int", "missing", "unrecognized", "no-command",
        "table-cache", "diag-zograf-cache",
    ],
)
def test_argparse_usage_error_in_one_short_line(tmp_path, capsys, monkeypatch, argv, words):
    # argparse printed its usage text and echoed the whole argument: 5213
    # bytes on four lines for a 5000-digit genus
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_line_error(code, err, words)
    assert len(err.encode()) < 250
    # table wrote no --out file
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv,start",
    [(["--version"], "wpvol "), (["intersect", "--help"], "usage: wpvol intersect ")],
    ids=["version", "help"],
)
def test_help_and_version_exit_zero(capsys, argv, start):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith(start)


def test_invariant_violation_exits_in_one_line(capsys, monkeypatch):
    # r_1 doubled in the build: V_{1,2} fails its check as it is stored
    from wpvol import recursion

    moment_constant = recursion.moment_constant
    monkeypatch.setattr(
        recursion, "moment_constant", lambda j: moment_constant(j) * (2 if j == 1 else 1)
    )
    code, out, err = run(capsys, "volume", "1", "2")
    assert (code, out) == (2, "")
    assert err == "error: a computed volume failed its check: V_{1,2} is not label-symmetric\n"


def test_installed_script_output_pins(tmp_path, capsys):
    # the table file, the relation suites and the closed-surface volumes
    # byte for byte, and verify all at dimension 11 to its exit code
    def digest(*argvs):
        h = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            h.update(out.encode())
        return h.hexdigest()

    path = tmp_path / "d9.json"
    assert run(capsys, "table", "--max-dim", "9", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2f0701c10f6d9f2fc3687ed45d5c0188b6c50ce43cbd4a9fae9731866fcf48ec"
    )
    suites = ("string", "dilaton", "dvv", "do-string", "do-dilaton")
    assert digest(*(["verify", r, "--max-dim", "9"] for r in suites)) == (
        "514e9c6214555a3d540a88bfad163c15bbfe893f1195853e45f06ae539fa0133"
    )
    assert digest(*(["verify", r, "--max-dim", "9", "--format", "json"] for r in suites)) == (
        "276b5c1bf31f1ea98d363a63c9cfece6c424d38acd8a55f440ff4fa4090ce2da"
    )
    do = ("do-string", "do-dilaton")
    assert digest(*(["verify", r, "--max-dim", "11", "--format", "json"] for r in do)) == (
        "f77e50d8a59267d3694cb8c50707b05b4c7b26ecf49fc3b78b54c7bfbc34f281"
    )
    assert digest(["verify", "two-point", "--max-dim", "11", "--format", "json"]) == (
        "5f9e6fa44986a527f3787f6c48ce65cb5de1edd2035a82b9ec92abad099e057f"
    )
    code, out, _ = run(capsys, "verify", "two-point", "--max-dim", "11")
    assert code == 0
    assert sum(line.startswith("two-point PASS") for line in out.splitlines()) == 16
    # compact 12 is the one run that reads r_i up to i = 34
    assert digest(["compact", "12"]) == (
        "7d5489f2bd2a8ca6e4fd9b966a67661c011cfe7c1b744961469ef8794b3721c3"
    )
    assert digest(["compact", "8"], ["compact", "10"]) == (
        "15c698965e553e1dd79130948408a3c7d06505b96c5f9361fc955d46f8893fdb"
    )
    # the relation lines change as relations are added, so only the verdict
    # is held here; the JSON report once took 6.3 s and 35 MB
    assert run(capsys, "verify", "all", "--max-dim", "11")[0] == 0
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "all", "--max-dim", "11", "--format", "json")
    assert code == 0 and json.loads(out)
    assert time.perf_counter() - start < 60


# ----------------------------------------------------------------------
# cache files


def stdlib_bytes(table):
    # the table file as the standard library's encoder joins it in memory
    from wpvol import cli

    payload = {
        "format": cli.CACHE_FORMAT,
        "version": cli.CACHE_VERSION,
        "tool": f"wpvol {cli.__version__}",
        "convention": cli.CONVENTION,
        "entries": {f"{g},{n}": table._stored(g, n).to_records() for g, n in table.signatures()},
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


def assert_writes_stdlib_bytes(table, path):
    from wpvol import cli

    cli.save_cache(table, str(path))
    assert path.read_bytes() == stdlib_bytes(table)


def test_cache_writer_matches_stdlib_encoder(tmp_path):
    from wpvol.recursion import VolumeTable

    table = VolumeTable()
    table.ensure(7)
    assert_writes_stdlib_bytes(table, tmp_path / "table.json")


def test_cache_writer_edge_cases_match_stdlib_encoder(tmp_path):
    from helpers import numerators
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
    ones = VolumeTable()
    for g, n in compact.signatures():
        if n == 1:
            ones._store(g, n, *numerators(compact._stored(g, n)))
    assert ones.signatures() == [(1, 1), (2, 1), (3, 1), (4, 1)]
    assert_writes_stdlib_bytes(ones, tmp_path / "ones.json")


def test_cache_writer_streams_records(tmp_path):
    import tracemalloc

    from wpvol import cli
    from wpvol.recursion import VolumeTable

    table = VolumeTable()
    table.ensure(7)

    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    path = tmp_path / "table.json"
    streamed = peak(lambda: cli.save_cache(table, str(path)))
    joined = peak(lambda: path.write_bytes(stdlib_bytes(table)))
    # the 135 kB file: 0.3-0.4 MB streamed, 1.2 MB joined before it is written
    assert streamed < joined / 2


@pytest.mark.parametrize("max_dim,records", [(4, 102), (6, 411), (7, 753)])
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
    # re-export from the table file: must round-trip byte-identically
    from wpvol.cli import load_cache, save_cache

    save_cache(load_cache(str(out1)), str(out2))
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
    code, out, err = run(capsys, "volume", "0", "3", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,3")


def test_cache_untouched_by_warm_query(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "3", "--out", str(path))
    before = path.read_bytes(), path.stat().st_mtime_ns
    code, out, _ = run(capsys, "volume", "1", "2", "--cache", str(path))
    assert code == 0 and "1/4*pi^4" in out
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    assert os.listdir(tmp_path) == ["cache.json"]


@pytest.mark.parametrize("max_dim", [6, 9])
def test_verify_all_output_unchanged_by_its_table_file(tmp_path, capsys, max_dim):
    # the file holds what the recursion computes, so reading it changes no line
    path = tmp_path / "table.json"
    assert run(capsys, "table", "--max-dim", str(max_dim), "--out", str(path))[0] == 0
    argv = ["verify", "all", "--max-dim", str(max_dim)]
    computed = run(capsys, *argv)
    assert computed[0] == 0
    assert run(capsys, *argv, "--cache", str(path)) == computed


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "1", "3"],
        ["verify", "string", "--max-dim", "3"],
    ],
    ids=["volume", "verify"],
)
def test_cache_unchanged_when_a_command_computes_beyond_it(tmp_path, capsys, monkeypatch, argv):
    # each of these rewrote the file with the entries it computed
    monkeypatch.chdir(tmp_path)
    run(capsys, "table", "--max-dim", "1", "--out", "cache.json")
    path = tmp_path / "cache.json"
    assert "1,3" not in json.loads(path.read_text())["entries"]
    before = path.read_bytes(), path.stat().st_mtime_ns
    code, out, _ = run(capsys, *argv, "--cache", "cache.json")
    assert code == 0 and out
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    assert os.listdir(tmp_path) == ["cache.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "1", "2"],
        ["intersect", "1", "2", "0"],
        ["compact", "2"],
        ["verify", "string", "--max-dim", "3"],
    ],
    ids=["volume", "intersect", "compact", "verify"],
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


def test_table_out_keeps_a_temporary_file_it_did_not_create(tmp_path, capsys):
    # a stale file of the writer's temporary name made the write fail, and
    # the writer then deleted that file as if it were its own
    stale = tmp_path / f".t.json.{os.getpid()}.tmp"
    stale.write_text("someone else's")
    code, out, err = run(capsys, "table", "--max-dim", "1", "--out", str(tmp_path / "t.json"))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert stale.read_text() == "someone else's"
    assert not (tmp_path / "t.json").exists()


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


def assert_entry_rejected(code, out, err, path, key, *words):
    # an entry that is not the volume the recursion computes: one line that
    # names the file and the entry, and nothing on stdout
    assert out == ""
    assert_one_line_error(code, err, f"{path}: entry {key!r}", "wpvol table", *words)
    assert len(err.encode()) <= 200


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
    code, out, err = run(capsys, "volume", "0", "3", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,3")
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
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "differs from V_{0,4} as computed")
    payload = json.loads(json.dumps(good))
    payload["entries"]["0,4"].append(payload["entries"]["0,4"][-1])
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "more records")


def test_cache_missing_a_term_rejected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    # V_{0,4} without its constant term 2 pi^2: still symmetric and positive
    assert payload["entries"]["0,4"][0]["alpha"] == [0, 0, 0, 0]
    del payload["entries"]["0,4"][0]
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "fewer records")


def cache_of(tmp_path, entries):
    """A table file with the current stamps and the given entries."""
    from wpvol import cli

    path = tmp_path / "cache.json"
    stamps = {"format": cli.CACHE_FORMAT, "version": 2, "convention": cli.CONVENTION}
    path.write_text(json.dumps(dict(stamps, entries=entries)))
    return path


def run_traced(capsys, *argv):
    """``run`` with the peak of the memory Python allocated during it."""
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        return code, out, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cache_missing_every_term_of_a_large_entry_rejected_in_small_memory(
    tmp_path, capsys
):
    # V_{0,44} has 1.4 million orbit keys; listing them all before checking
    # the first took 0.7 GB, and 4 more labels cost about 2.5x more.  The
    # keys are counted only as far as the one record, and nothing computed
    record = {"alpha": [0] * 44, "pi_power": 82, "coeff": "1"}
    path = cache_of(tmp_path, {"0,44": [record]})
    code, out, err, peak = run_traced(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,44", "fewer records")
    assert peak < 1e6


def test_cache_entry_without_terms_rejected_before_any_key(tmp_path, capsys):
    # no record bounds n: naming the first missing key of V_{0,10^6} wrote
    # a 3 MB error line, and at n = 10^9 that key alone needs 8 GB
    path = cache_of(tmp_path, {"0,1000000": []})
    code, out, err, peak = run_traced(capsys, "volume", "0", "4", "--cache", str(path))
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
    assert_entry_rejected(code, out, err, path, "0,5", "more records")


def test_cache_asymmetric_in_the_first_label_rejected(tmp_path, capsys):
    # L_2^2 weighted unlike L_1^2: the orbit key (0, 1, 0, 0) of V_{0,4}
    # differs from its sorted key (1, 0, 0, 0)
    def edit(records):
        (rec,) = [r for r in records if r["alpha"] == [0, 1, 0, 0]]
        rec["coeff"] = "7"

    path = v04_cache_with(tmp_path, capsys, edit)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "differs from V_{0,4} as computed")


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
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "differs from V_{0,4} as computed")


def test_cache_coefficient_as_json_number_rejected(tmp_path, capsys):
    def edit(records):
        records[-1]["coeff"] = 0.5

    path = v04_cache_with(tmp_path, capsys, edit)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "differs from V_{0,4} as computed")


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
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "differs from V_{0,4} as computed")


@pytest.mark.parametrize(
    "fields,fault",
    [
        # each fault as the field-by-field reader named it
        ({"alpha": [1, 0, 0]}, "has length 3, expected 4"),
        ({"alpha": [-1, 2, 0, 0]}, "negative exponent"),
        # its pi power -2 is the one the weight implies
        ({"alpha": [3, 0, 0, 0], "pi_power": -2}, "exceeds the weight 1"),
    ],
)
def test_cache_exponents_out_of_range_rejected(tmp_path, capsys, fields, fault):
    def edit(records):
        records[-1].update(fields)

    path = v04_cache_with(tmp_path, capsys, edit)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "differs from V_{0,4} as computed")


@pytest.mark.parametrize("key", ["0,2", "-1,5", "1,0", "01,3"])
def test_cache_key_not_a_stable_signature_rejected(tmp_path, capsys, key):
    path = tmp_path / "cache.json"
    run(capsys, "table", "--max-dim", "1", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["entries"][key] = []
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(
        code, out, err, path, key, "is not a stable signature g,n with n >= 1"
    )


@pytest.mark.parametrize(
    "g,words",
    [
        # past Python's digit limit for int(), and within it
        ("1" * 100_000, "entry '11111111111111111111...(100002 characters)' is not a stable"),
        (
            "1" * 4000,
            "entry '11111111111111111111...(4002 characters)' needs dimension "
            "3g-3+n = 33333333333333333333...(4000 characters)",
        ),
        # g within the limit, but its dimension 3g-2 past it
        ("4" * 4300, "entry '44444444444444444444...(4302 characters)' needs dimension 3g-3+n "),
    ],
    ids=["past-the-digit-limit", "within-the-digit-limit", "dimension-past-the-digit-limit"],
)
def test_cache_key_of_many_digits_named_in_one_short_line(tmp_path, capsys, g, words):
    # the key was echoed whole: a 100 KB error line
    record = {"alpha": [0], "pi_power": 0, "coeff": "1"}
    path = cache_of(tmp_path, {f"{g},1": [record]})
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert out == ""
    assert_one_line_error(code, err, f"{path}: ", words)
    assert len(err.encode()) < 250


@pytest.mark.parametrize(
    "zero,drop,words",
    [
        # a zero off the orbit keys is a record the file cannot hold
        ([0, 0, 1, 0], None, "more records"),
        (None, [0, 1, 0, 0], "fewer records"),
        ([1, 0, 0, 0], [0, 1, 0, 0], "fewer records"),
        # a zero at an orbit key, listed last
        ([0, 1, 0, 0], None, "differs from V_{0,4} as computed"),
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
    assert_entry_rejected(code, out, err, path, "0,4", words)


@pytest.mark.parametrize(
    "coeff,fault",
    # each fault as the field-by-field reader named it
    [("1/x", "Invalid literal for Fraction: '1/x'"), ("1/0", "'1/0' with denominator 0")],
)
def test_cache_malformed_coefficient_off_the_orbit_keys_rejected(
    tmp_path, capsys, coeff, fault
):
    # a record past the stored keys is counted before any coefficient is read
    def edit(records):
        records.append({"alpha": [0, 0, 0, 1], "pi_power": 0, "coeff": coeff})

    path = v04_cache_with(tmp_path, capsys, edit)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "more records")


def doubled_v04_cache(tmp_path, capsys):
    """A dimension-1 table file whose V_{0,4} records are all doubled: still
    well-formed, label-symmetric and positive, but not the volume."""
    from fractions import Fraction

    def edit(records):
        for rec in records:
            rec["coeff"] = str(2 * Fraction(rec["coeff"]))

    return v04_cache_with(tmp_path, capsys, edit)


def test_cache_with_a_doubled_volume_rejected(tmp_path, capsys):
    # the doubled polynomial was served as V_{0,4} with exit 0
    path = doubled_v04_cache(tmp_path, capsys)
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "differs from V_{0,4} as computed")


def test_verify_with_a_doubled_volume_rejected_before_the_kernel_suite(
    tmp_path, capsys, monkeypatch
):
    # verify all ran every suite on the doubled V_{0,4} and failed DVV and Do
    path = doubled_v04_cache(tmp_path, capsys)
    forbid_kernel_work(monkeypatch)
    code, out, err = run(capsys, "verify", "all", "--max-dim", "1", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "0,4", "differs from V_{0,4} as computed")


def test_cache_entry_past_the_reach_rejected_before_any_key(tmp_path, capsys, monkeypatch):
    # one record is not enough to bound n: V_{0,10^6} has n = 10^6 labels
    forbid_table_work(monkeypatch)
    forbid_key_work(monkeypatch)
    record = {"alpha": [0], "pi_power": 0, "coeff": "1"}
    path = cache_of(tmp_path, {"0,1000000": [record]})
    code, out, err, peak = run_traced(capsys, "volume", "0", "4", "--cache", str(path))
    assert out == ""
    assert_one_line_error(
        code, err, f"{path}: entry '0,1000000' needs dimension 3g-3+n = 999997",
        f"the largest wpvol computes, {MAX_DIM}",
    )
    assert len(err.encode()) < 200
    assert peak < 1e6


def test_cache_entry_with_too_few_records_rejected_before_any_volume(
    tmp_path, capsys, monkeypatch
):
    # V_{20,1} has 58 stored keys; computing it to compare would take about
    # an hour, at compact's 2.5x per genus past compact 15's 38 s
    forbid_table_work(monkeypatch)
    record = {"alpha": [0], "pi_power": 114, "coeff": "1"}
    path = cache_of(tmp_path, {"20,1": [record]})
    code, out, err = run(capsys, "volume", "0", "4", "--cache", str(path))
    assert_entry_rejected(code, out, err, path, "20,1", "fewer records than V_{20,1} has keys")


def forbid_table_work(monkeypatch):
    from wpvol.recursion import VolumeTable

    def no_work(*args):
        raise AssertionError("the table was built before the arguments were checked")

    monkeypatch.setattr(VolumeTable, "volume", no_work)
    monkeypatch.setattr(VolumeTable, "ensure", no_work)
    monkeypatch.setattr(VolumeTable, "_stored", no_work)
    monkeypatch.setattr(VolumeTable, "_free1_view", no_work)


def forbid_key_work(monkeypatch):
    from wpvol import cli

    def no_keys(k, d):
        raise AssertionError("a key was built before the reach was checked")

    monkeypatch.setattr(cli, "_sorted_keys", no_keys)


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
    elif kind == "deep":
        path.write_text("[" * 100_000)
    elif kind == "wide":
        cache_of(tmp_path, {"0,44": []})
    elif kind == "huge":
        cache_of(tmp_path, {"0,1000000000": []})
    elif kind == "past-the-reach":
        cache_of(tmp_path, {"0,1000000000": [{"alpha": [0], "pi_power": 0, "coeff": "1"}]})
    return path


BAD_CACHE_WORDS = {
    "missing": "No such file",
    "not-json": "not a JSON file",
    "version-1": "version 1",
    "directory": "exists and is not a regular file",
    "deep": "not a JSON file",
    "wide": "entry '0,44' holds no terms",
    "huge": "entry '0,1000000000' holds no terms",
    "past-the-reach": "entry '0,1000000000' needs dimension 3g-3+n = 999999997",
}


@pytest.mark.parametrize("kind", sorted(BAD_CACHE_WORDS))
@pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
def test_bad_cache_rejected_before_work(tmp_path, capsys, monkeypatch, command, kind):
    # verify all ran the whole kernel suite, printing its PASS lines, and a
    # missing file was created by the write-back
    forbid_table_work(monkeypatch)
    forbid_key_work(monkeypatch)
    forbid_kernel_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    path = write_bad_cache(tmp_path, kind)
    before = sorted(os.listdir(tmp_path))
    code, out, err = run(capsys, *TABLE_COMMANDS[command], "--cache", "cache.json")
    assert out == ""
    assert_one_line_error(code, err, "cache.json", BAD_CACHE_WORDS[kind])
    assert len(err.encode()) <= 200
    assert sorted(os.listdir(tmp_path)) == before
    assert kind != "not-json" or path.read_text() == "not a cache"


@pytest.mark.parametrize(
    "argv,option",
    [
        (["table", "--max-dim", "1", "--out", ""], "--out"),
        (["volume", "1", "1", "--cache", ""], "--cache"),
        (["verify", "all", "--max-dim", "2", "--cache", ""], "--cache"),
    ],
    ids=["table-out", "volume-cache", "verify-cache"],
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


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("wpvol.oracle", ["wpvol", "wpvol.oracle"]),
        (
            "wpvol.cli",
            [
                "wpvol",
                "wpvol.cli",
                "wpvol.exact",
                "wpvol.intersect",
                "wpvol.kernels",
                "wpvol.lpoly",
                "wpvol.recursion",
            ],
        ),
        (
            "wpvol.recursion",
            ["wpvol", "wpvol.exact", "wpvol.kernels", "wpvol.lpoly", "wpvol.recursion"],
        ),
    ],
    ids=["oracle", "cli", "recursion"],
)
def test_import_loads_only_what_the_module_imports(module, loaded):
    # the package re-exported names from four modules, so importing any one
    # module loaded seven, the CLI's intersect among them
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'wpvol'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == repr(loaded)


def test_verify_runs_without_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    # numpy is a test dependency only: with it blocked, importing the
    # oracle and running every kernel and relation check still works
    for argv in (["verify", "kernels"], ["verify", "all", "--max-dim", "4"]):
        probe = (
            "import sys, wpvol.oracle; assert 'numpy' not in sys.modules; "
            "sys.modules['numpy'] = None; "
            "from wpvol.cli import main; "
            f"sys.exit(main({argv!r}))"
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
    # table takes no --cache
    argv = argv + (["--out", str(out)] if argv[0] == "table" else ["--cache", str(cache)])
    code, stdout, err = run(capsys, *argv)
    assert stdout == ""
    assert_one_line_error(code, err, "--max-dim must be non-negative")
    assert cache.read_text() == "not a cache"
    assert not out.exists()


@pytest.mark.parametrize(
    "relation, max_dim, least",
    [
        pytest.param(relation, max_dim, least, id=relation)
        for relation, max_dim, least in [
            ("string", 0, 1),
            ("dilaton", 0, 1),
            ("dvv", 0, 1),
            ("do-string", 0, 1),
            ("do-dilaton", 0, 1),
            ("all", 0, 1),
            ("two-point", 1, 2),
        ]
    ],
)
def test_relation_suite_without_instances_rejected_before_work(
    tmp_path, capsys, monkeypatch, relation, max_dim, least
):
    # at --max-dim 0 no suite has an instance, and the two-point function
    # has none below dimension 2: a pass would check nothing
    forbid_table_work(monkeypatch)
    forbid_kernel_work(monkeypatch)
    cache = tmp_path / "cache.json"
    cache.write_text("not a cache")
    argv = ["verify", relation, "--max-dim", str(max_dim), "--cache", str(cache)]
    code, stdout, err = run(capsys, *argv)
    assert stdout == ""
    assert_one_line_error(
        code, err, f"verify {relation} --max-dim {max_dim}", "no relation",
        f"use --max-dim {least} or more",
    )
    assert cache.read_text() == "not a cache"


@pytest.mark.parametrize(
    "argv,words",
    [
        (["volume", "200", "1"], "V_{200,1} needs dimension 3g-3+n = 598"),
        (["volume", "0", "1000000000", "--lengths", "1"], "= 999999997"),
        (["intersect", "300", "1"], "V_{300,1} needs dimension 3g-3+n = 898"),
        (["intersect", "20", "0", "0", "0", "0"], "V_{20,4} needs"),
        (["compact", "21"], "compact 21, through V_{21,1}, needs dimension 3g-3+n = 61"),
        (["verify", "dvv", "--max-dim", "100000"], "verify dvv --max-dim 100000 needs"),
        (["verify", "all", "--max-dim", "61"], "verify all --max-dim 61 needs"),
        (["table", "--max-dim", "61", "--out", "out.json"], "--max-dim 61 needs"),
        (["diag-zograf", "--gmax", "21"], "--gmax 21 --n 1 needs dimension 3g-3+n = 61"),
        (["diag-zograf", "--gmax", "21", "--n", "0"], "--gmax 21 --n 0 needs"),
    ],
)
def test_out_of_reach_dimension_rejected_before_work(
    tmp_path, capsys, monkeypatch, argv, words
):
    # each ran until a timeout killed it: V_{200,1} alone is dimension 598
    forbid_table_work(monkeypatch)
    forbid_kernel_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "cache.json"
    cache.write_text("not a cache")
    if argv[0] not in ("table", "diag-zograf"):
        argv = argv + ["--cache", str(cache)]
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_line_error(code, err, words, f"the largest wpvol computes, {MAX_DIM}")
    assert os.listdir(tmp_path) == ["cache.json"]


@pytest.mark.parametrize("g", ["4" * 4300, "1" * 4300], ids=["dimension-past-the-limit", "dimension-within-the-limit"])
@pytest.mark.parametrize(
    "argv",
    [["volume", "{g}", "1"], ["intersect", "{g}", "1"], ["compact", "{g}"]],
    ids=["volume", "intersect", "compact"],
)
def test_genus_of_many_digits_named_in_one_short_line(capsys, g, argv):
    # str() of the dimension 3g-2 of 4301 digits raised the interpreter's
    # digit-limit text, and the label repeated g whole: a 4419-byte line
    code, out, err = run(capsys, *(a.format(g=g) for a in argv))
    assert out == ""
    assert_one_line_error(
        code, err, f"V_{{{g[:20]}...(4300 characters),1}}", "needs dimension 3g-3+n "
    )
    assert "Exceeds" not in err and "set_int_max_str_digits" not in err
    assert len(err.encode()) < 250


def test_reach_covers_compact_fifteen_and_stops_at_its_limit(capsys, monkeypatch):
    # compact 15 reads V_{15,1}; dimension MAX_DIM itself is accepted: the
    # pairing below is zero by degree, so it needs no table work either
    forbid_table_work(monkeypatch)
    assert moduli_dim(15, 1) == 43 <= MAX_DIM
    code, out, err = run(capsys, "intersect", "20", "0", "0", "61")
    assert moduli_dim(20, 3) == MAX_DIM and code == 0 and out == "0\n"
    assert "zero by degree" in err


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


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # every line of the README's CLI block, so that none names a command or
    # an option wpvol does not have
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "wpvol"
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, f"{line}: {err}"


def test_readme_guarantees_name_existing_tests():
    # each row of the README's Guarantees table names the tier-1 tests that
    # enforce it, as `tests/<file>::<test>`; a renamed or deleted test fails here
    import ast

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Guarantees\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    assert len(rows) >= 8
    defined = {}
    for row in rows:
        names = re.findall(r"`tests/([^`:]+)::([^`]+)`", row.rsplit("|", 2)[1])
        assert names, row
        for module, test in names:
            if module not in defined:
                with open(os.path.join(root, "tests", module), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                defined[module] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert test.startswith("test_") and test in defined[module], f"{module}::{test}"
