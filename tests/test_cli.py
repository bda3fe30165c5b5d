"""End-to-end tests of the command-line interface, run in process.

Each test invokes ``gisieve.cli.run`` with an argv list and inspects the
captured stdout/stderr and the exit status: 0 for success, 1 for an
honest numeric failure (a detected identity mismatch), 2 for usage and
domain errors.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time

import pytest

from gisieve.archimedean import QuadratureConfig
from gisieve.cli import run
from gisieve.gauss import euler_phi, ideals_up_to_norm, is_coprime
from test_expsums import scalar_selberg_residual, scalar_shift_residual, scalar_weil_ratio


def _json_payload(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def _write_quadrature(path, cfg: QuadratureConfig):
    """The file form of cfg: one ``key = repr(value)`` line per field."""
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in dataclasses.asdict(cfg).items()))
    return path


# ---------------------------------------------------------------------------
# Point evaluations
# ---------------------------------------------------------------------------


def test_kloosterman_worked_example(capsys):
    # S(1, 1; 2+i) = 2 + 2 cos(2 pi / 5): the residue field has five
    # elements and the additive character sends a to e(2a/5).
    assert run(["kloosterman", "--m", "1", "--n", "1", "--c", "2+i"]) == 0
    out = capsys.readouterr().out
    assert "2.618034" in out
    assert "# command = kloosterman" in out


def test_kloosterman_json_payload(capsys):
    code = run(["kloosterman", "--m", "1", "--n", "1", "--c", "2+i", "--format", "json"])
    assert code == 0
    payload = _json_payload(capsys)
    assert payload["tool"] == "gisieve"
    assert payload["command"] == "kloosterman"
    assert payload["columns"] == ["m", "n", "c", "value_re", "value_im", "abs"]
    (row,) = payload["rows"]
    assert row[0] == "1" and row[2] == "2+i"
    assert float(row[5]) == pytest.approx(2 + 2 * math.cos(2 * math.pi / 5), abs=1e-12)


def test_fsum_even_modulus(capsys):
    # F(1; 2) = 2 (both units mod 2 contribute e[1] = 1).
    assert run(["fsum", "--w", "1", "--c", "2", "--format", "json"]) == 0
    (row,) = _json_payload(capsys)["rows"]
    assert float(row[2]) == pytest.approx(2.0, abs=1e-12)
    assert float(row[3]) == pytest.approx(0.0, abs=1e-12)


def test_charsum_exps_filter(capsys):
    assert run(["charsum", "--c", "4", "--format", "json"]) == 0
    all_rows = _json_payload(capsys)["rows"]
    assert len(all_rows) > 1
    first_exps = all_rows[0][0].replace(":", ",")
    assert run(["charsum", "--c", "4", "--exps", first_exps, "--format", "json"]) == 0
    filtered = _json_payload(capsys)["rows"]
    assert len(filtered) == 1
    assert filtered[0] == all_rows[0]


@pytest.mark.parametrize(
    "c, exps, reduced",
    [("3", "9", "1"), ("3", "-7", "1"), ("3", "-1", "7"), ("5", "9,9", "1,1"), ("5", "4,-1", "0,3")],
)
def test_charsum_exps_reduced_mod_generator_orders(capsys, c, exps, reduced):
    # (Z[i]/3)^x is cyclic of order 8; (Z[i]/5)^x has generator orders 4, 4
    assert run(["charsum", "--c", c, "--exps", reduced, "--format", "json"]) == 0
    want = _json_payload(capsys)["rows"]
    assert run(["charsum", "--c", c, "--exps", exps, "--format", "json"]) == 0
    assert _json_payload(capsys)["rows"] == want
    assert want[0][0] == reduced.replace(",", ":")


def test_bessel_three_representations_agree(capsys):
    code = run(
        ["bessel", "--z", "0.5", "--T", "1", "--P", "1", "--compare", "--format", "json"]
    )
    assert code == 0
    payload = _json_payload(capsys)
    values = {name: complex(v.replace("j", "j")) for name, v in
              ((row[0], row[1]) for row in payload["rows"])}
    assert set(values) == {"spectral", "derivative", "weighted", "max_deviation"}
    assert abs(values["max_deviation"]) < 1e-8


def test_bessel_rejects_p_beyond_the_series_range(capsys, recwarn):
    # the spectral form's series table holds 12P + 1 orders on 64 t-nodes; at
    # P = 1000 it would outgrow its 4,194,304 entries
    argv = ["bessel", "--z", "1+i", "--T", "1", "--P", "1000", "--compare"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "(12001 orders |p| <= 6000 x 64 t-nodes x 10 coefficients), more than 4,194,304" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_bessel_compare_at_large_p(capsys, recwarn):
    # at P = 40 the orders reach 240, past where 1/Gamma(it + p + 1) overflows
    argv = ["bessel", "--z", "1+i", "--T", "1", "--P", "40", "--compare", "--format", "json"]
    assert run(argv) == 0
    rows = {row[0]: float(row[1]) for row in _json_payload(capsys)["rows"]}
    assert rows["max_deviation"] < 1e-10 * abs(rows["weighted"])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("T", ["0.01", "0.1", "0.2"])
@pytest.mark.parametrize("command", ["bessel", "kuznetsov-geom"])
def test_small_t_is_refused_before_the_r_panels_are_walked(capsys, recwarn, command, T):
    # the r-panel count grows like |z| exp(6/T): 3.6e12 at T = 0.2 and |z| = 1
    argv = {
        "bessel": ["bessel", "--z", "1", "--T", T, "--P", "1"],
        "kuznetsov-geom": ["kuznetsov-geom", "--m", "1", "--n", "1", "--T", T, "--c-norm-max", "5"],
    }[command]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert f"at T = {T} and |z| = " in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_zeta_smoothed_dedekind_value(capsys):
    # zeta(2, 0) is the Dedekind zeta value zeta(2) L(2, chi_-4)
    # = (pi^2 / 6) * Catalan = 1.50670...
    assert run(["zeta", "--s", "2", "--p", "0", "--smoothed", "--format", "json"]) == 0
    (row,) = _json_payload(capsys)["rows"]
    want = (math.pi**2 / 6) * 0.9159655941772190
    assert float(row[2]) == pytest.approx(want, abs=1e-4)


def test_plancherel_quadrature_matches_closed_form(capsys):
    assert run(["plancherel", "--T", "1", "--P", "1", "--format", "json"]) == 0
    payload = _json_payload(capsys)
    rows = {row[0]: float(row[1]) for row in payload["rows"]}
    assert rows["closed_form"] == pytest.approx(3.1387, abs=5e-4)
    assert rows["abs_difference"] < 1e-8


# ---------------------------------------------------------------------------
# Experiments (determinism)
# ---------------------------------------------------------------------------


def test_hybrid_deterministic_across_runs(capsys):
    argv = ["hybrid", "--C", "4", "--T", "2", "--N", "10", "--trials", "4", "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    (row,) = payload["rows"]
    assert row[0] == "hybrid" and int(row[1]) == 4
    assert float(row[4]) > 0


def test_quadform_runs_and_reports_ratio(capsys):
    argv = [
        "quadform", "--d", "1", "--theta", "0.5", "--C", "3", "--M", "2", "--N", "2",
        "--trials", "3", "--format", "json",
    ]
    assert run(argv) == 0
    (row,) = _json_payload(capsys)["rows"]
    ratio = float(row[4])
    assert math.isfinite(ratio) and ratio >= 0


def test_eisenstein_experiment_runs(capsys):
    argv = ["eisenstein", "--T", "2", "--P", "1", "--N", "8", "--trials", "3", "--format", "json"]
    assert run(argv) == 0
    (row,) = _json_payload(capsys)["rows"]
    assert float(row[4]) > 0


def test_kuznetsov_geometric_side_runs(capsys):
    argv = [
        "kuznetsov-geom", "--m", "1", "--n", "1", "--T", "1", "--P", "1",
        "--c-norm-max", "40", "--format", "json",
    ]
    assert run(argv) == 0
    payload = _json_payload(capsys)
    assert payload["command"] == "kuznetsov-geom"
    assert payload["rows"]


def test_kuznetsov_geometric_rejects_a_negative_cutoff(capsys):
    argv = ["kuznetsov-geom", "--m", "1", "--n", "1", "--T", "2", "--c-norm-max", "-5"]
    assert run(argv) == 2
    assert "c_norm_max >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


def test_verify_all_default_range_passes(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for suite in ("mellin", "parseval", "twisted", "lemma", "selberg", "shift",
                  "weil", "bessel", "plancherel"):
        assert suite in out


def test_verify_charsum_group_only(capsys):
    assert run(["verify", "charsum", "--max-norm", "100", "--format", "json"]) == 0
    payload = _json_payload(capsys)
    names = [row[0] for row in payload["rows"]]
    assert names == ["mellin", "parseval", "twisted"]
    assert all(row[4] == "pass" for row in payload["rows"])
    assert all(float(row[2]) < 1e-9 for row in payload["rows"])


def _csv_rows(capsys, argv: list[str]) -> list[list[str]]:
    assert run(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("suite,checked,worst_residual,failures,status")
    return [line.split(",") for line in lines[header + 1 :]]


def _twisted_pair_count(max_norm: int) -> int:
    """sum of phi(c1) phi(c2) over the coprime pairs of distinct ideals
    with N(c1) N(c2) <= max_norm: one check per pair of characters."""
    ideals = ideals_up_to_norm(max_norm)
    return sum(
        euler_phi(a) * euler_phi(b)
        for a, b in itertools.combinations(ideals, 2)
        if a.norm * b.norm <= max_norm and is_coprime(a.gen, b.gen)
    )


def test_verify_twisted_at_norm_1000(capsys):
    # one table per pair of moduli, every pair with N(c1) N(c2) <= 1000
    [[name, checked, worst, failures, status]] = _csv_rows(
        capsys, ["verify", "twisted", "--max-norm", "1000"]
    )
    assert (name, failures, status) == ("twisted", "0", "pass")
    assert int(checked) == _twisted_pair_count(1000)
    assert float(worst) < 1e-13


@pytest.mark.parametrize("max_norm", [60, 200, 400])
def test_verify_twisted_check_counts(capsys, max_norm):
    [row] = _csv_rows(capsys, ["verify", "twisted", "--max-norm", str(max_norm)])
    assert int(row[1]) == _twisted_pair_count(max_norm)


def test_verify_identity_suites_match_scalar_oracles(capsys):
    # the per-modulus arrays against the scalar identities over the same
    # grids: the same number of checks and the same worst value, in full repr
    small = [i.gen for i in ideals_up_to_norm(10)]
    moduli = [i.gen for i in ideals_up_to_norm(100)]
    selberg = [abs(scalar_selberg_residual(m, n, c)) for c in moduli for m in small for n in small]
    weil = [scalar_weil_ratio(m, n, c) for c in moduli for m in small for n in small]
    cap = 100 * 40.0
    shift = [
        abs(scalar_shift_residual(q.gen * g.gen, c.gen, g.gen))
        for c in ideals_up_to_norm(100)
        for g in ideals_up_to_norm(math.sqrt(cap / c.norm))
        for q in ideals_up_to_norm(cap / (c.norm * g.norm**2))
    ]
    rows = _csv_rows(capsys, ["verify", "selberg", "shift", "weil", "--max-norm", "100"])
    want = [("selberg", selberg), ("shift", shift), ("weil", weil)]
    assert [row[:3] for row in rows] == [
        [name, str(len(values)), repr(max(values))] for name, values in want
    ]


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run(["verify", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite 'bogus'" in err


def test_verify_max_norm_too_small(capsys):
    assert run(["verify", "--max-norm", "1"]) == 2
    assert "max_norm >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("max_norm", ["0", "1.5", "-3"])
def test_lemma_check_max_norm_too_small(capsys, max_norm):
    assert run(["lemma-check", "--max-norm", max_norm]) == 2
    assert "max_norm >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-norm", "1e300"],
        ["verify", "--max-norm", "2147483648", "lemma"],
        ["verify", "--max-norm", "1e300", "bessel"],
        ["lemma-check", "--max-norm", "1e300"],
        ["kuznetsov-geom", "--m", "1", "--n", "1", "--c-norm-max", "100000000000000000000"],
    ],
)
def test_moduli_bound_beyond_exact_unit_arithmetic(capsys, monkeypatch, argv):
    # no modulus of norm 2^31 or more has exact unit tables, so such a
    # bound fails before any enumeration; an enumerator asked for one
    # raises instead of hanging
    from gisieve import gauss, spectral, verify

    def bounded(enumerate_up_to):
        def enumerate_below(limit):
            assert limit < gauss.MAX_UNIT_NORM, limit
            return enumerate_up_to(limit)

        return enumerate_below

    for module, name in (
        (verify, "ideals_up_to_norm"),
        (verify, "prime_power_ideals_up_to_norm"),
        (spectral, "ideals_up_to_norm"),
    ):
        monkeypatch.setattr(module, name, bounded(getattr(module, name)))
    assert run(argv) == 2
    assert "below 2147483648" in capsys.readouterr().err


def test_lemma_check_clean_below_first_dyadic_failure(capsys):
    assert run(["lemma-check", "--max-norm", "32"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out
    assert "MISMATCH" not in out


def test_lemma_check_reports_dyadic_failures(capsys):
    # The first disagreements with the stated case formulas appear at
    # modulus norm 64: two characters there.
    assert run(["lemma-check", "--max-norm", "64"]) == 1
    out = capsys.readouterr().out
    assert "2 mismatches" in out
    assert out.count("MISMATCH") == 2
    assert "# mismatch:" in out


# ---------------------------------------------------------------------------
# Report formats and output files
# ---------------------------------------------------------------------------


def test_csv_format_shape(capsys):
    assert run(["kloosterman", "--m", "1", "--n", "1", "--c", "2+i", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# gisieve ")
    assert "m,n,c,value_re,value_im,abs" in lines
    data = [ln for ln in lines if ln.startswith("1,1,2+i,")]
    assert len(data) == 1


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["fsum", "--w", "3", "--c", "2+i", "--format", "json", "--out", str(path)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert path.read_text() == out


def test_quadrature_file_is_honoured(tmp_path, capsys):
    path = _write_quadrature(tmp_path / "quad.txt", QuadratureConfig(gl_order=24))
    assert run(["plancherel", "--quadrature", str(path), "--format", "json"]) == 0
    payload = _json_payload(capsys)
    assert payload["config"]["quadrature.gl_order"] == "24"


def test_missing_quadrature_file_is_domain_error(capsys):
    for path in ("/nonexistent/quad.json", ""):  # an empty path is no file, not the default
        assert run(["plancherel", "--quadrature", path]) == 2
        assert "plancherel" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["frobnication", "theta_q_cut"])
def test_unknown_quadrature_key_is_usage_error(tmp_path, capsys, key):
    path = tmp_path / "quad.txt"
    path.write_text(f"{key} = 3\n")
    assert run(["plancherel", "--quadrature", str(path)]) == 2
    assert f"unknown quadrature key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,argv",
    [("t_cut = nan", ["plancherel"]), ("r_cut = inf", ["bessel", "--z", "1"])],
)
def test_non_finite_quadrature_file_is_usage_error(tmp_path, capsys, line, argv):
    path = tmp_path / "quad.txt"
    path.write_text(line + "\n")
    assert run([*argv, "--quadrature", str(path)]) == 2
    err = capsys.readouterr().err
    assert line.split()[0] in err and "not finite" in err


@pytest.mark.parametrize(
    "line, named",
    [
        ("t_panels = 0", "t_panels = 0 must be positive"),
        ("t_cut = -1", "t_cut = -1.0 must be positive"),
        ("gl_order = 2.5", "gl_order = '2.5' is not a valid int"),
        ("r_cut =", "r_cut = '' is not a valid float"),
    ],
)
def test_bad_quadrature_value_names_its_key(tmp_path, capsys, line, named):
    path = tmp_path / "quad.txt"
    path.write_text(line + "\n")
    assert run(["plancherel", "--quadrature", str(path)]) == 2
    assert f"quadrature config {named}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Every flag acts
# ---------------------------------------------------------------------------

#: A cheap run of each subcommand, in csv so that every digit shows.
CHEAP = {
    "kloosterman": ["--m", "1", "--n", "1", "--c", "2+i"],
    "fsum": ["--w", "1", "--c", "2"],
    "charsum": ["--c", "3+3i"],
    "lemma-check": ["--max-norm", "64"],
    "bessel": ["--z", "1+i"],
    "plancherel": [],
    "zeta": ["--s", "2"],
    "eisenstein": ["--N", "10", "--trials", "2"],
    "kuznetsov-geom": ["--m", "1", "--n", "1", "--c-norm-max", "10"],
    "quadform": ["--C", "3", "--M", "3", "--N", "3", "--trials", "2"],
    "hybrid": ["--C", "3", "--N", "5", "--trials", "2"],
    "verify": ["mellin", "--max-norm", "30"],
}

#: flag -> (the subcommands that read it, two values that must differ in effect)
FLAG_USES = {
    "--seed": ({"eisenstein", "quadform", "hybrid"}, ("0", "1")),
    "--tolerance": ({"lemma-check", "verify"}, ("1e-30", "10")),
    "--quadrature": ({"bessel", "plancherel", "kuznetsov-geom"}, (16, 24)),
}


def _report_rows(capsys, argv):
    """Exit status, the non-header lines of one csv report, and stderr."""
    code = run([*argv, "--format", "csv"])
    out, err = capsys.readouterr()
    return code, [line for line in out.splitlines() if not line.startswith("#")], err


@pytest.mark.parametrize("flag", sorted(FLAG_USES))
@pytest.mark.parametrize("command", sorted(CHEAP))
def test_every_flag_acts(tmp_path, capsys, command, flag):
    readers, values = FLAG_USES[flag]
    if flag == "--quadrature":
        values = [
            str(_write_quadrature(tmp_path / f"{v}.txt", QuadratureConfig(gl_order=v)))
            for v in values
        ]
    reports = [_report_rows(capsys, [command, *CHEAP[command], flag, v]) for v in values]
    if command not in readers:
        for code, _, err in reports:
            assert code == 2 and f"unrecognized arguments: {flag}" in err
            assert err.startswith(f"usage: gisieve {command} ")
        return
    assert all(code in (0, 1) for code, _, _ in reports)
    (_, rows_a, _), (_, rows_b, _) = reports
    assert rows_a != rows_b


# ---------------------------------------------------------------------------
# Literals that start with '-'
# ---------------------------------------------------------------------------

#: Every Gaussian-integer, complex and --exps flag, with a value that
#: starts with '-' and is no plain negative number, in a cheap run.
DASH_VALUES = [
    ("kloosterman", ["--n", "1", "--c", "2+i"], "--m", "-i"),
    ("kloosterman", ["--n", "1", "--c", "2+i"], "--m", "-1+i"),
    ("kloosterman", ["--m", "1", "--c", "2+i"], "--n", "-1-2i"),
    ("kloosterman", ["--m", "1", "--n", "1"], "--c", "-2+i"),
    ("fsum", ["--c", "2+i"], "--w", "-i"),
    ("fsum", ["--w", "1"], "--c", "-3i"),
    ("charsum", ["--c", "5"], "--exps", "-1,4"),
    ("charsum", [], "--c", "-3+3i"),
    ("bessel", ["--T", "2", "--P", "2"], "--z", "-1-i"),
    ("zeta", ["--cutoff", "1000"], "--s", "-0.5+2i"),
    ("quadform", ["--C", "3", "--M", "3", "--N", "3", "--trials", "2"], "--d", "-1+i"),
    ("quadform", ["--C", "3", "--M", "3", "--N", "3", "--trials", "2"], "--theta", "-1+0.5i"),
    ("kuznetsov-geom", ["--n", "2+i", "--c-norm-max", "5"], "--m", "-i"),
    ("kuznetsov-geom", ["--m", "1", "--c-norm-max", "5"], "--n", "-2+i"),
]


@pytest.mark.parametrize(
    "command, rest, flag, value", DASH_VALUES, ids=[f"{c}{f}{v}" for c, _, f, v in DASH_VALUES]
)
def test_literal_starting_with_dash_as_next_word(capsys, command, rest, flag, value):
    # "--m -i" reads as "--m=-i", byte for byte
    assert run([command, *rest, f"{flag}={value}"]) == 0
    want = capsys.readouterr()
    assert run([command, *rest, flag, value]) == 0
    got = capsys.readouterr()
    assert got.out == want.out
    assert got.err == want.err == ""


def test_unknown_flag_after_dash_literal_is_usage_error(capsys):
    assert run(["kloosterman", "--m", "-i", "--n", "1", "--c", "2+i", "--bogus", "-x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gisieve kloosterman ")
    assert "unrecognized arguments: --bogus -x" in err


def test_flag_is_not_taken_as_a_literal(capsys):
    # a word that starts with '--' stays a flag: --m has no value
    assert run(["kloosterman", "--m", "--n", "1", "--c", "2+i"]) == 2
    assert "argument --m: expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Usage errors
# ---------------------------------------------------------------------------


def test_missing_required_flag(capsys):
    assert run(["kloosterman", "--m", "1", "--n", "1"]) == 2


def test_unknown_command(capsys):
    assert run(["frobnicate"]) == 2


def test_bad_gaussian_literal(capsys):
    assert run(["kloosterman", "--m", "1", "--n", "1", "--c", "pear"]) == 2
    assert "kloosterman" in capsys.readouterr().err


def test_modulus_too_large_for_unit_arithmetic(capsys):
    # N(46341) = 2147488281 could overflow the int64 unit arithmetic
    assert run(["kloosterman", "--m", "1", "--n", "1", "--c", "46341"]) == 2
    assert "too large" in capsys.readouterr().err


def test_bad_complex_literal(capsys):
    assert run(["bessel", "--z", "wibble"]) == 2
    assert "not a complex literal" in capsys.readouterr().err


def test_zero_trials_is_domain_error(capsys):
    assert run(["quadform", "--trials", "0"]) == 2
    assert "gisieve quadform: trials must be >= 1" in capsys.readouterr().err


def test_desk_cap_error_names_the_doubled_modulus(capsys):
    assert run(["quadform", "--C", "600"]) == 2
    assert "2C = 1200.0 exceeds the desk-scale cap 1000.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["zeta", "--s", "nan"], "'nan'"),
        (["zeta", "--s", "2", "--cutoff", "inf"], "--cutoff"),
        (["bessel", "--z", "nan"], "'nan'"),
        (["bessel", "--z", "1", "--T", "inf"], "--T"),
        (["verify", "--max-norm", "nan"], "--max-norm"),
        (["lemma-check", "--tolerance", "nan"], "--tolerance"),
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv, named):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "finite" in err


def test_exps_matching_no_character(capsys):
    # (Z[i]/5)^x has two generators; 9,9 is the character 1,1, but a
    # vector of another length names no character
    assert run(["charsum", "--c", "5", "--exps", "9,9,9"]) == 2
    assert "exponent vector has wrong length" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out
