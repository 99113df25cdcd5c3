"""Command-line interface: config parsing, verbs, artifacts, and exit codes."""

import argparse
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tdmpc as T
import tdmpc.cli as cli
import tdmpc.closed_loop

# small but complete pendulum configuration for fast end-to-end checks
BASE = """\
preset = pendulum
N = 5            # calibrated horizon
T = 6
repeats = 0      # reproducible output files
psi_samples = 50
ell_list = [7, 3]
ediss_pairs = 20
ediss_horizon = 20
ediss_holdout = 10
contraction_samples = 50
contraction_ell_max = 10
lyap_nv = 12
lyap_samples = 20
"""


def write_conf(tmp_path, extra="", name="conf.txt"):
    path = tmp_path / name
    path.write_text(BASE + extra)
    return str(path)


def test_parse_config_text_values_and_comments():
    conf = cli.parse_config_text(
        "# leading comment\n"
        "N = 12\n"
        "T_s = 0.1  # trailing comment\n"
        "Q = [[1.0, 0.0], [0.0, 2.0]]\n"
        "nu_init = zeros\n"
        "flag = True\n"
        "\n"
    )
    assert conf["N"] == 12
    assert conf["T_s"] == 0.1
    assert conf["Q"] == [[1.0, 0.0], [0.0, 2.0]]
    assert conf["nu_init"] == "zeros"  # bare strings survive verbatim
    assert conf["flag"] is True


def test_parse_config_text_errors_name_the_line():
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.parse_config_text("N = 3\nnot a pair\n")
    with pytest.raises(cli.ConfigError, match="line 1"):
        cli.parse_config_text("= 3\n")


def test_resolve_config_defaults_to_pendulum_preset(tmp_path, capsys):
    args = argparse.Namespace(config=None, seed=None, repeats=None)
    conf = cli.resolve_config(args)
    assert conf["N"] == 10
    assert conf["T"] == 30
    assert np.array_equal(conf["A_c"], [[0.0, 1.0], [14.7, 0.0]])
    assert conf["x0"][0] == pytest.approx(-math.pi / 4.0)
    args = argparse.Namespace(config=None, seed=7, repeats=0)
    conf = cli.resolve_config(args)
    assert conf["seed"] == 7 and conf["repeats"] == 0
    # the fast verbs run on the defaults alone, with no configuration file
    out = tmp_path / "out"
    for verbs in (["calibrate-N"], ["run", "6"], ["run", "benchmark"]):
        assert cli.main(["--out", str(out), "--repeats", "0", *verbs]) == 0, verbs
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == [
        "calibration.txt", "run_benchmark.csv", "run_ell6.csv"]


def test_default_ell_list_shape():
    ells = cli.default_ell_list()
    assert ells[0] == 1 and ells[-1] == 5000
    assert ells == sorted(set(ells))
    assert len(ells) >= 25


def test_ell_list_sorted_deduplicated():
    def ells(val):
        return cli.checked(dict(cli.pendulum_preset(), ell_list=val), cli.CONFIG_KEYS)["ell_list"]

    assert ells([7, 3, 7, 1]) == [1, 3, 7]
    with pytest.raises(cli.ConfigError):
        ells([])
    with pytest.raises(cli.ConfigError):
        ells([0, 3])
    with pytest.raises(cli.ConfigError):
        ells([2.5])


def test_readme_configuration_matches_the_table(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration\n", 1)[1].split("\n### ", 1)[0]
    for key in cli.CONFIG_KEYS:
        assert re.search(rf"`{key}( = [^`]+)?`", section), key
    example = tmp_path / "readme.conf"
    example.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0])
    conf = cli.resolve_config(argparse.Namespace(config=str(example), seed=None, repeats=None))
    assert conf["N"] == 5 and conf["ell_list"] == [1, 6, 40, 100]


def test_library_defaults_match_the_table():
    # the library's keyword defaults are what README's Library example gets
    library = {
        T.pgm_config: {"tol_benchmark": "tol_benchmark", "iter_cap": "iter_cap"},
        T.compute_certificates: {"psi_samples": "psi_samples"},
        T.fit_ediss: {"pairs": "ediss_pairs", "horizon": "ediss_horizon",
                      "holdout_pairs": "ediss_holdout"},
        T.audit_contraction: {"samples": "contraction_samples",
                              "ell_max": "contraction_ell_max"},
        T.lyapunov_finite_horizon: {"samples": "lyap_samples",
                                    "fit_horizon": "ediss_horizon"},
    }
    for func, keys in library.items():
        params = inspect.signature(func).parameters
        for name, key in keys.items():
            assert params[name].default == cli.CONFIG_KEYS[key][1], (func.__name__, name)


def test_unknown_preset_exits_1(tmp_path, capsys):
    conf = tmp_path / "bad.txt"
    conf.write_text("preset = spaceship\n")
    code = cli.main(["--config", str(conf), "--out", str(tmp_path), "constants"])
    assert code == 1
    assert "spaceship" in capsys.readouterr().err


def test_missing_key_exits_1(tmp_path, capsys):
    conf = tmp_path / "partial.txt"
    conf.write_text("A = [[0.5]]\nB = [[1.0]]\nQ = [[1.0]]\n")
    code = cli.main(["--config", str(conf), "--out", str(tmp_path), "constants"])
    assert code == 1
    assert "'R'" in capsys.readouterr().err


def test_run_benchmark_and_truncated(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), "run", "benchmark"]) == 0
    text = capsys.readouterr().out
    assert "J_T = " in text and "stable = 1" in text
    bench_csv = (out / "run_benchmark.csv").read_text().splitlines()
    assert bench_csv[0] == "k,x_1,x_2,u_applied_1,solve_time_s"
    assert len(bench_csv) == 8  # header + 6 steps + terminal row

    assert cli.main(["--config", conf, "--out", str(out), "run", "7"]) == 0
    run_csv = (out / "run_ell7.csv").read_text().splitlines()
    assert run_csv[0] == "k,x_1,x_2,u_applied_1,norm_d_k,solve_time_s"
    # terminal row has empty input cells
    assert run_csv[-1].endswith(",,,")


def test_run_rejects_bad_target(tmp_path, capsys):
    conf = write_conf(tmp_path)
    assert cli.main(["--config", conf, "--out", str(tmp_path), "run", "soon"]) == 1
    assert cli.main(["--config", conf, "--out", str(tmp_path), "run", "0"]) == 1
    capsys.readouterr()
    # a superscript two is a digit but no decimal: int() would reject it
    assert cli.main(["--config", conf, "--out", str(tmp_path), "run", "²"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_run_with_optimal_warm_start(tmp_path):
    conf = write_conf(tmp_path, extra="nu_init = optimal\n")
    assert cli.main(["--config", conf, "--out", str(tmp_path), "run", "3"]) == 0


def test_tiny_iteration_cap_exits_3(tmp_path, capsys):
    # no certificate passes at this tolerance, so the capped fallback raises
    conf = write_conf(tmp_path, extra="iter_cap = 5\ntol_benchmark = 1e-300\n")
    code = cli.main(["--config", conf, "--out", str(tmp_path), "run", "benchmark"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_constants_reports_pending_without_probe(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "fresh"
    assert cli.main(["--config", conf, "--out", str(out), "constants"]) == 0
    text = (out / "constants.txt").read_text()
    assert "M_bar = pending probe" in text
    assert "eta = " in text and "ell_star = " in text
    # the DARE's certificate: the relative residual of the doubling's P
    residual = [ln for ln in text.splitlines() if ln.startswith("dare_residual = ")]
    assert len(residual) == 1 and float(residual[0].split("=")[1]) < 1e-14
    assert "M_bar = pending probe" in capsys.readouterr().out


def test_probe_then_constants_and_sweep_reuse_fit(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "chain"
    assert cli.main(["--config", conf, "--out", str(out), "probe"]) == 0
    fit_bytes = (out / "ediss_fit.txt").read_bytes()
    report = (out / "probe_report.txt").read_text()
    for key in ("c0 = ", "c_w = ", "rho = ", "contraction_worst = ", "N_V = ",
                "beta_sq = ", "passed = 1"):
        assert key in report
    capsys.readouterr()

    # constants now resolves the combined cost constant from the saved fit
    assert cli.main(["--config", conf, "--out", str(out), "constants"]) == 0
    text = (out / "constants.txt").read_text()
    assert "M_bar = pending probe" not in text
    assert "M_bar = " in text and "ediss_rho = " in text

    # sweep reuses the fit file instead of refitting
    assert cli.main(["--config", conf, "--out", str(out), "sweep"]) == 0
    assert (out / "ediss_fit.txt").read_bytes() == fit_bytes
    assert (out / "sweep.csv").exists()
    assert "ediss_fit.txt" not in capsys.readouterr().out


def test_probe_short_window_exits_2(tmp_path, capsys):
    conf = write_conf(tmp_path, extra="lyap_nv = 1\n")
    code = cli.main(["--config", conf, "--out", str(tmp_path / "p2"), "probe"])
    assert code == 2
    assert "check failed" in capsys.readouterr().err


def test_sweep_csv_contract(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["--config", conf, "--out", str(out), "--svg", "sweep"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("ell,eta_pow_ell,R_T_empirical,complexity_cor1,bound_thm8,"
                        "S_T,S_T2,compute_time_s,stable_flag")
    assert len(lines) == 3  # two budgets
    ells = [int(r.split(",")[0]) for r in lines[1:]]
    assert ells == [3, 7]
    rates = [float(r.split(",")[1]) for r in lines[1:]]
    assert rates[0] > rates[1] > 0.0
    for row in lines[1:]:
        cells = row.split(",")
        R_T, complexity, bound = float(cells[2]), float(cells[3]), float(cells[4])
        S_T, S_T2 = float(cells[5]), float(cells[6])
        assert cells[8] in ("0", "1")
        assert R_T <= bound + 1e-9 * max(1.0, abs(bound))
        assert S_T2 <= S_T + 1e-12
        assert cells[7] == "0.0"  # repeats = 0 writes zero compute time
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg") and "iterations per step" in svg


def test_sweep_rows_are_gap_reports(tmp_path):
    # each row is build_gap_report for its budget, against certificates that
    # carry M_bar from the fit the sweep saved; at ell = 40 the rate cell is
    # the Python power eta ** 40, which the numpy power can miss in the last bit
    conf_path = write_conf(tmp_path, extra="ell_list = [40, 3]\n")
    out = tmp_path / "rows"
    assert cli.main(["--config", conf_path, "--out", str(out), "sweep"]) == 0
    conf = cli.resolve_config(argparse.Namespace(config=conf_path, seed=None, repeats=None))
    model, qp, cfg, K = cli.build_setup(conf)
    certs = T.compute_certificates(model, qp, cfg, K).with_fit(
        qp, cli.load_ediss_fit(str(out / "ediss_fit.txt"))[0])
    x0 = np.asarray(conf["x0"], dtype=float)
    bench = T.run_benchmark(model, qp, cfg, x0, conf["T"], repeats=0)
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    for row, ell in zip(rows, [3, 40], strict=True):
        run = T.run_tdmpc(model, qp, cfg, x0, ell, conf["T"], repeats=0)
        gap = T.build_gap_report(run, qp, certs, T.truncate_run(bench, run.T))
        fields = (gap.rate_max, gap.R_T, gap.complexity, gap.bound, gap.S_T, gap.S_T2)
        assert row == [str(ell), *(repr(float(v)) for v in fields), "0.0",
                       str(int(run.stable))]
    assert rows[1][1] == repr(certs.eta ** 40)


def test_diverging_run_benchmark_prints_stable_0(tmp_path, capsys):
    # the saturated benchmark loop diverges from x0 = [3, 0] and stops at
    # its first diverged state; its flag follows its last state, as the
    # CSV it writes does
    conf = write_conf(tmp_path, extra="T = 60\nx0 = [3.0, 0.0]\n")
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), "run", "benchmark"]) == 0
    text = capsys.readouterr().out
    assert int(re.search(r"^steps = (\d+)$", text, re.M).group(1)) < 60
    assert "stable = 0" in text
    assert not T.read_run_csv(str(out / "run_benchmark.csv")).stable
    assert math.isfinite(float(re.search(r"^J_T = (.+)$", text, re.M).group(1)))
    # a sweep from there ends normally too: every run diverges where the
    # benchmark does, each row says so, and stderr names each budget once
    steps = T.read_run_csv(str(out / "run_benchmark.csv")).T
    conf = write_conf(tmp_path, extra="T = 60\nx0 = [3.0, 0.0]\nell_list = [1, 6, 40]\n",
                      name="sweep.conf")
    assert cli.main(["--config", conf, "--out", str(out), "sweep"]) == 0
    err = capsys.readouterr().err
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("ell,eta_pow_ell,R_T_empirical,complexity_cor1,bound_thm8,"
                        "S_T,S_T2,compute_time_s,stable_flag")
    assert [(row.split(",")[0], row.split(",")[-1]) for row in lines[1:]] == [
        ("1", "0"), ("6", "0"), ("40", "0")]
    assert err == "".join(f"ell = {ell}: closed loop diverged after {steps} steps\n"
                          for ell in (1, 6, 40))


def test_sweep_compares_runs_over_the_benchmarks_prefix(tmp_path, capsys, monkeypatch):
    # a benchmark that diverged after 3 of T = 6 steps: each row is the gap
    # report of the first 3 steps of its run, and stderr says so
    run_benchmark = cli.run_benchmark
    monkeypatch.setattr(cli, "run_benchmark",
                        lambda *args, **kw: T.truncate_run(run_benchmark(*args, **kw), 3))
    conf_path = write_conf(tmp_path)
    out = tmp_path / "prefix"
    assert cli.main(["--config", conf_path, "--out", str(out), "sweep"]) == 0
    err = capsys.readouterr().err
    conf = cli.resolve_config(argparse.Namespace(config=conf_path, seed=None, repeats=None))
    model, qp, cfg, K = cli.build_setup(conf)
    certs = T.compute_certificates(model, qp, cfg, K).with_fit(
        qp, cli.load_ediss_fit(str(out / "ediss_fit.txt"))[0])
    x0 = np.asarray(conf["x0"], dtype=float)
    bench = run_benchmark(model, qp, cfg, x0, 3, repeats=0)
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    for row, ell in zip(rows, [3, 7], strict=True):
        run = T.run_tdmpc(model, qp, cfg, x0, ell, conf["T"], repeats=0)
        assert run.T == 6
        gap = T.build_gap_report(T.truncate_run(run, 3), qp, certs, bench)
        fields = (gap.rate_max, gap.R_T, gap.complexity, gap.bound, gap.S_T, gap.S_T2)
        assert row == [str(ell), *(repr(float(v)) for v in fields), "0.0",
                       str(int(run.stable))]
        assert f"ell = {ell}: benchmark diverged after 3 steps; gap over the first 3 of 6" in err


def test_sweep_deterministic_across_directories(tmp_path):
    conf = write_conf(tmp_path)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["--config", conf, "--out", str(out1), "--seed", "0", "sweep"]) == 0
    assert cli.main(["--config", conf, "--out", str(out2), "--seed", "0", "sweep"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "ediss_fit.txt").read_bytes() == (out2 / "ediss_fit.txt").read_bytes()


def test_calibrate_scan_picks_the_frozen_horizon(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "cal"
    assert cli.main(["--config", conf, "--out", str(out), "calibrate-N"]) == 0
    text = (out / "calibration.txt").read_text()
    assert "chosen_N = 5" in text
    capsys.readouterr()
    # a scan cut off before the window is reached signals failure
    conf2 = write_conf(tmp_path, extra="calibrate_max = 4\n", name="conf2.txt")
    assert cli.main(["--config", conf2, "--out", str(out), "calibrate-N"]) == 2


def test_svg_plot_handles_empty_series(tmp_path):
    path = tmp_path / "empty.svg"
    cli.svg_line_plot(str(path), [("nothing", [], [])], "x", "y")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" not in text


def test_negative_repeats_flag_exits_1(tmp_path, capsys):
    conf = write_conf(tmp_path)
    code = cli.main(["--config", conf, "--out", str(tmp_path), "--repeats", "-1", "run", "6"])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "'repeats'" in err
    assert len(err.strip().splitlines()) == 1


def test_fractional_repeats_key_exits_1(tmp_path, capsys):
    conf = write_conf(tmp_path, extra="repeats = 2.5\n")
    assert cli.main(["--config", conf, "--out", str(tmp_path), "run", "6"]) == 1
    assert cli.main(["--config", conf, "--out", str(tmp_path), "sweep"]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error") == 2 and "2.5" in err


# too deep for Python's parser: the sum exhausts its recursion, the signs its memory
DEEP_SUM = "+".join(["1"] * 100_000)
DEEP_SIGNS = "-" * 100_000 + "1"


@pytest.mark.parametrize("extra, verbs, shown", [
    ("N = five", ["run", "6"], "'five'"),
    ("N = 2.5", ["sweep"], "2.5"),
    ("T = 0", ["run", "benchmark"], "'T'"),
    ("x0 = [1.0]", ["sweep"], "'x0'"),
    ("seed = -1", ["constants"], "'seed'"),
    ("ell_list = ['many']", ["sweep"], "'many'"),
    ("tol_benchmark = tiny", ["sweep"], "'tol_benchmark'"),
    ("T_s = fast", ["sweep"], "'T_s'"),
    ("r_w = big", ["sweep"], "'r_w'"),
    ("tol_benchmark = nan", ["sweep"], "'tol_benchmark'"),
    ("tol_benchmark = -1", ["sweep"], "'tol_benchmark'"),
    ("T_s = -0.1", ["sweep"], "'T_s'"),
    ("r_w = -1", ["sweep"], "'r_w'"),
    ("u_min = [1.0]", ["sweep"], "'u_min'"),
    ("u_min = [-1.0, -1.0]", ["sweep"], "'u_min'"),
    ("u_min = [-1.0, -1.0]\nu_max = [1.0, 1.0]", ["sweep"], "'u_min'"),
    ("ediss_horizn = 2", ["constants"], "'ediss_horizn'"),
    ("A = [[0.5, 0.0], [0.0, 0.5]]\nB = [[1.0], [0.0]]", ["constants"], "(A, B)"),
    ("A = [[0.5, 0.0], [0.0, 0.5]]", ["constants"], "(A_c, B_c, T_s)"),
    ("Q = [[1.0]]", ["constants"], "'Q' has shape (1, 1), expected (2, 2)"),
    ("R = [[1.0, 0.0], [0.0, 1.0]]", ["run", "6"], "'R' has shape (2, 2), expected (1, 1)"),
    ("u_min = [-1e308]\nu_max = [1e308]", ["probe"], "box width upper - lower must be finite"),
    ("u_min = [-5e307]\nu_max = [5e307]", ["constants"], "input box overflows"),
    ("u_min = [-5e307]\nu_max = [5e307]", ["probe"], "input box overflows"),
    pytest.param(f"N = {DEEP_SUM}", ["sweep"], "'N' must be an integer >= 1, got '1+1+",
                 id="N deep sum"),
    pytest.param(f"x0 = {DEEP_SIGNS}", ["sweep"], "'x0' must be numeric, got '---",
                 id="x0 deep signs"),
    pytest.param("preset = [1]", ["constants"], "unknown preset [1]", id="preset list"),
    pytest.param("preset = {1: 2}", ["constants"], "unknown preset {1: 2}", id="preset dict"),
])
def test_bad_config_value_exits_1(tmp_path, capsys, extra, verbs, shown):
    conf = write_conf(tmp_path, extra=extra + "\n")
    assert cli.main(["--config", conf, "--out", str(tmp_path), *verbs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and shown in err
    assert len(err.strip().splitlines()) == 1


def test_long_rejected_value_is_cut_and_its_length_given(tmp_path, capsys):
    # the repr of the 199,999-character sum has 200,001 characters
    conf = write_conf(tmp_path, extra=f"N = {DEEP_SUM}\n")
    assert cli.main(["--config", conf, "--out", str(tmp_path / "out"), "constants"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: configuration key 'N' must be an integer >= 1, "
                          f"got {DEEP_SUM[:199]!r}"[:-1] + "... (200001 characters)")
    assert len(err.splitlines()) == 1 and len(err.encode()) < 500


@pytest.mark.parametrize("key, value", [
    ("rho", "1.5"), ("c_w", "-3.0"), ("c_w", "fast"), ("c0", "nan"), ("r_w", "-1.0"),
    ("worst_slack", "bad"), ("pairs", "x"), ("horizon", "-1"),
    pytest.param("rho", DEEP_SUM, id="rho-deep sum"),
    pytest.param("c0", DEEP_SIGNS, id="c0-deep signs"),
])
def test_out_of_range_saved_fit_exits_1(tmp_path, capsys, key, value):
    conf = write_conf(tmp_path, extra="N = 5\nT = 5\nell_list = [3]\n")
    fit = {"c0": "1.0", "c_w": "1.0", "rho": "0.5", "r_w": "0.01",
           "pairs": "20", "horizon": "20", "worst_slack": "0.0", key: value}
    path = tmp_path / "ediss_fit.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fit.items()))
    assert cli.main(["--config", conf, "--out", str(tmp_path), "sweep"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(path) in err and repr(key) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", ["conf.txt", "ediss_fit.txt"])
def test_undecodable_file_exits_1(tmp_path, capsys, name):
    # the byte 0xff is not UTF-8: a configuration error that names the file
    conf = write_conf(tmp_path, extra="T = 5\nell_list = [3]\n")
    path = tmp_path / name
    if name == "ediss_fit.txt":
        path.write_bytes(b"c0 = 1.0\nc_w = 1.0\nrho = 0.5\nr_w = 0.01\n")
    path.write_bytes(path.read_bytes() + b"pairs = 20\xff\n")
    assert cli.main(["--config", conf, "--out", str(tmp_path), "sweep"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read configuration file {path}: "
                          "'utf-8' codec can't decode byte 0xff")
    assert len(err.strip().splitlines()) == 1
    # constants reads both files too, and says the same
    assert cli.main(["--config", conf, "--out", str(tmp_path), "constants"]) == 1
    assert capsys.readouterr().err == err


def test_sweep_timing_changes_only_compute_time(tmp_path):
    # repeats = 0 skips exact repeats of the controller's orbit, repeats = 1
    # times every step: the rows agree in every other column
    conf = write_conf(tmp_path, extra="T = 3\nell_list = [6, 5000]\n")
    rows = {}
    for repeats in ("0", "1"):
        out = tmp_path / f"r{repeats}"
        assert cli.main(["--config", conf, "--out", str(out), "--repeats", repeats,
                         "sweep"]) == 0
        rows[repeats] = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()]
    header = rows["0"][0]
    assert header == rows["1"][0] and len(rows["0"]) == 3
    timed = header.index("compute_time_s")
    for untimed_row, timed_row in zip(rows["0"][1:], rows["1"][1:], strict=True):
        assert untimed_row[timed] == "0.0" and float(timed_row[timed]) > 0.0
        del untimed_row[timed], timed_row[timed]
        assert untimed_row == timed_row


def test_sweep_skips_per_step_reference_solves(tmp_path, monkeypatch):
    # each truncated run solves mu*(x_k) of its visited states in one
    # batched call; the second sweep reuses the saved fit, so every
    # remaining solve is the certificates', the benchmark run's or one
    # run's batched call
    conf = write_conf(tmp_path, extra="T = 3\nell_list = [3, 40]\n")
    out = tmp_path / "counted"
    assert cli.main(["--config", conf, "--out", str(out), "sweep"]) == 0
    calls = []
    solve = T.solve_benchmark

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tdmpc" and getattr(module, "solve_benchmark", None) is solve:
            monkeypatch.setattr(module, "solve_benchmark", counting)
    assert cli.main(["--config", conf, "--out", str(out), "sweep"]) == 0
    # 12 with a reference solve at every step: len(ell_list) * (T - 1) fewer
    assert len(calls) == 8


@pytest.mark.parametrize("verbs", [["constants"], ["calibrate-N"], ["probe"], ["sweep"],
                                   ["run", "6"], ["run", "benchmark"]], ids=" ".join)
def test_wrong_length_x0_exits_1_on_every_verb(tmp_path, capsys, verbs):
    conf = write_conf(tmp_path, extra="x0 = [0.1, 0.2, 0.3]\n")
    assert cli.main(["--config", conf, "--out", str(tmp_path / "out"), *verbs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "'x0' has 3 entries, expected 2" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("extra, shown", [
    ("ediss_pairs = 1", "'ediss_pairs' must be an integer >= 2"),
    ("ediss_horizon = 3", "'ediss_horizon' must be an integer >= 4"),
])
@pytest.mark.parametrize("verbs", [["constants"], ["calibrate-N"], ["probe"], ["sweep"],
                                   ["run", "6"], ["run", "benchmark"]], ids=" ".join)
def test_fit_sizes_below_the_fit_minimum_exit_1_on_every_verb(tmp_path, capsys, verbs,
                                                               extra, shown):
    # fit_ediss needs 2 pairs and a horizon of 4; the table says so first
    conf = write_conf(tmp_path, extra=extra + "\n")
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), *verbs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and shown in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_fit_sizes_at_the_fit_minimum_pass_the_table():
    conf = cli.checked({"ediss_pairs": 2, "ediss_horizon": 4}, {
        key: cli.CONFIG_KEYS[key] for key in ("ediss_pairs", "ediss_horizon")})
    assert conf == {"ediss_pairs": 2, "ediss_horizon": 4}


INF_X0 = "x0 = [1e400, 0.0]\n"
OVERFLOW_X0 = "x0 = [1e308, 1e308]\n"
INF_MESSAGE = "x0 contains non-finite entries"
OVERFLOW_MESSAGE = "G x0 contains non-finite entries"


@pytest.mark.parametrize("verbs, extra, message", [
    (["run", "3"], INF_X0, INF_MESSAGE), (["run", "benchmark"], INF_X0, INF_MESSAGE),
    (["sweep"], INF_X0, INF_MESSAGE), (["constants"], INF_X0, INF_MESSAGE),
    (["probe"], INF_X0, INF_MESSAGE), (["calibrate-N"], INF_X0, INF_MESSAGE),
    (["run", "3"], INF_X0 + "nu_init = optimal\n", INF_MESSAGE),
    (["sweep"], OVERFLOW_X0, OVERFLOW_MESSAGE), (["run", "3"], OVERFLOW_X0, OVERFLOW_MESSAGE),
    (["constants"], "T_s = 1e6\n", "A contains non-finite entries"),
    (["constants"], "T_s = 1e307\n", "A contains non-finite entries"),
    (["constants"], "T_s = 1e308\n", "A contains non-finite entries"),
], ids=["run 3", "run benchmark", "sweep", "constants", "probe", "calibrate-N",
        "run 3 nu_init=optimal", "sweep G x0 overflow", "run 3 G x0 overflow",
        "constants exp(A_c T_s) overflow", "constants T_s = 1e307 overflow",
        "constants T_s = 1e308 overflow"])
def test_non_finite_x0_exits_3_at_once(tmp_path, capsys, verbs, extra, message):
    # 1e400 parses to inf, and G x0 overflows at 1e308; the loop would
    # otherwise run the fallback on NaN to iter_cap.  Every verb ends before
    # any fit or solve, with no numpy warning, so nothing is fitted or written.
    # A huge T_s overflows the discretization's squaring in the same way, and
    # from 1e307 on T_s times the plant's matrices overflows before it
    conf = write_conf(tmp_path, extra=extra)
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), *verbs]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {message}\n"
    assert captured.out == "" and list(out.iterdir()) == []


# an unstable scalar plant: A^N overflows from N = 309
UNSTABLE = """\
A = [[10.0]]
B = [[1.0]]
Q = [[1.0]]
R = [[1.0]]
u_min = [-1.0]
u_max = [1.0]
x0 = [0.1]
T = 5
N = 400
"""


@pytest.mark.parametrize("verbs", [["constants"], ["probe"], ["run", "6"], ["sweep"]])
def test_overflowing_condensing_exits_3_with_one_line(tmp_path, capsys, verbs):
    # the prediction matrices overflow: one numerical failure naming them, no numpy warning
    conf = tmp_path / "unstable.conf"
    conf.write_text(UNSTABLE)
    out = tmp_path / "out"
    assert cli.main(["--config", str(conf), "--out", str(out), *verbs]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: condensing overflows at horizon 400: "
                            "F, L, H, G, W contain non-finite entries\n")
    assert captured.out == "" and list(out.iterdir()) == []


@pytest.mark.parametrize("verbs", [["constants"], ["probe"], ["run", "6"], ["sweep"]])
def test_horizon_too_long_for_an_array_exits_3_with_one_line(tmp_path, capsys, verbs):
    # numpy refuses N = 10**18 without allocating; condensing refuses it first
    conf = write_conf(tmp_path, extra="N = 1000000000000000000\n")
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), *verbs]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: condensing overflows at horizon "
                            "1000000000000000000: its 2000000000000000000 x "
                            "2000000000000000000 matrices are too big for an array\n")
    assert captured.out == "" and list(out.iterdir()) == []


def test_calibrate_n_stops_at_the_first_indefinite_hessian(tmp_path, capsys):
    # calibrate-N scans N = 1, 2, ... and never reaches an overflowing
    # horizon: at N = 8 H is finite, but cond(H) is about 1e16, so the
    # contraction rate of its step rounds to 1
    conf = tmp_path / "unstable.conf"
    conf.write_text(UNSTABLE)
    assert cli.main(["--config", str(conf), "--out", str(tmp_path / "cal"), "calibrate-N"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: H is not positive definite")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("verbs", [["constants"], ["probe"], ["run", "6"], ["sweep"]])
def test_step_rate_that_rounds_to_one_exits_3_with_one_line(tmp_path, capsys, verbs):
    # at N = 8 H's least eigenvalue is positive but below rounding level, and
    # its step's rate rounds to 1: a numerical failure, not a failed check
    conf = tmp_path / "unstable.conf"
    conf.write_text(UNSTABLE.replace("N = 400", "N = 8\niter_cap = 1000"))
    out = tmp_path / "out"
    assert cli.main(["--config", str(conf), "--out", str(out), *verbs]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: H is not positive definite to working "
                            "precision: the rate eta = 1.0 of its step is not below 1, so H "
                            "is too ill-conditioned to tell\n")
    assert captured.out == "" and list(out.iterdir()) == []


def test_calibrate_n_names_conditioning_as_the_cause(tmp_path, capsys):
    # H >= R = 1 in exact arithmetic; at N = 8 the computed least eigenvalue
    # is so far below rounding level for the largest, about 1e16, that the
    # step's rate eta rounds to 1, and calibrate-N stops there; at N = 9 the
    # least eigenvalue comes out negative, below rounding level for about 1e18
    conf = tmp_path / "unstable.conf"
    conf.write_text(UNSTABLE)
    assert cli.main(["--config", str(conf), "--out", str(tmp_path / "cal"), "calibrate-N"]) == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: H is not positive definite to working precision: "
                   "the rate eta = 1.0 of its step is not below 1, so H is too "
                   "ill-conditioned to tell\n")
    conf.write_text(UNSTABLE.replace("N = 400", "N = 9"))
    assert cli.main(["--config", str(conf), "--out", str(tmp_path / "n9"), "constants"]) == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: H is not positive definite to working precision: "
                   "min eigenvalue -1.205e+01 is below rounding level for max eigenvalue "
                   "1.010e+18, so H is too ill-conditioned to tell\n")


def test_calibrate_n_never_forms_g_x0(tmp_path, capsys):
    conf = write_conf(tmp_path, extra=OVERFLOW_X0)
    assert cli.main(["--config", conf, "--out", str(tmp_path / "cal"), "calibrate-N"]) == 0
    assert capsys.readouterr().err == ""


BALL_MESSAGE = ("x0 or T is too large: the cost (1e6 (1 + ||x0||))^2 (||Q|| + ||P||) (T + 1) "
                "of the divergence guard's ball overflows")
VERBS = [["constants"], ["probe"], ["sweep"], ["run", "6"], ["run", "benchmark"]]


@pytest.mark.parametrize("x0", ["[1e200, 1e200]", "[1e150, 1e150]"])
@pytest.mark.parametrize("verbs", VERBS, ids=" ".join)
def test_start_too_large_for_the_guard_exits_3_at_once(tmp_path, capsys, verbs, x0):
    # G x0 is finite, but ||x0|| overflows at 1e200, so the divergence guard
    # could never trip, and at 1e150 the guard's own norms overflow: every
    # verb that forms G x0 ends before any fit or solve, with no numpy warning
    conf = write_conf(tmp_path, extra=f"x0 = {x0}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), *verbs]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {BALL_MESSAGE}\n"
    assert captured.out == "" and list(out.iterdir()) == []


@pytest.mark.parametrize("verbs", VERBS, ids=" ".join)
def test_large_start_inside_the_guards_reach_runs(tmp_path, capsys, verbs):
    conf = write_conf(tmp_path, extra="x0 = [1e140, 1e140]\n")
    assert cli.main(["--config", conf, "--out", str(tmp_path / "out"), *verbs]) == 0
    assert capsys.readouterr().err == ""


def test_build_setup_bounds_the_cost_of_the_guards_ball(tmp_path):
    def setup(extra):
        conf = cli.resolve_config(argparse.Namespace(
            config=write_conf(tmp_path, extra=extra), seed=None, repeats=None))
        return cli.build_setup(conf)

    # the preset's start, the benchmark's divergence from [3, 0] over 1000
    # steps and a start of 1e140 all keep the ball's cost finite
    for extra in ("", "T = 1000\nx0 = [3.0, 0.0]\n", "x0 = [1e140, 1e140]\n"):
        setup(extra)
    # ||x0|| itself is finite here, but its square is not
    for extra in ("x0 = [1e160, 0.0]\n", f"T = {10**400}\n"):
        with pytest.raises(T.NumericsError, match=re.escape(BALL_MESSAGE)):
            setup(extra)


def _runs(pend, x0, horizon):
    """The benchmark and a truncated run of the calibrated pendulum from x0, unstarted."""
    m, qp, cfg = pend.model, pend.qp, pend.cfg
    return (lambda: T.run_benchmark(m, qp, cfg, x0, horizon, repeats=0),
            lambda: T.run_tdmpc(m, qp, cfg, x0, 6, horizon, repeats=0))


@pytest.mark.parametrize("x0, message", [
    ([1e150, 1e150], BALL_MESSAGE), ([1e200, 1e200], BALL_MESSAGE),
    ([1e308, 1e308], OVERFLOW_MESSAGE),
])
def test_library_runs_refuse_starts_beyond_the_guards_reach(pend, x0, message):
    # the runs check a start as the CLI does, before any step and with no numpy warning
    for run in _runs(pend, x0, 30):
        with pytest.raises(T.NumericsError, match=f"^{re.escape(message)}$"):
            run()


def test_library_runs_from_a_large_start_inside_the_guards_reach(pend):
    for run in _runs(pend, [1e140, 1e140], 30):
        done = run()
        assert np.isfinite(T.cost_JT(done, pend.qp.Q, pend.qp.R, pend.qp.P))


def test_build_setup_and_the_runs_refuse_the_same_starts(tmp_path, pend):
    # near the edge of the guard's reach, the CLI refuses a start exactly when the library does
    verdicts = set()
    for horizon in (30, 10**6, 10**300):
        for k in range(140, 161):
            x0 = f"[1e{k}, 1e{k}]"
            conf = cli.resolve_config(argparse.Namespace(
                config=write_conf(tmp_path, extra=f"T = {horizon}\nx0 = {x0}\n"),
                seed=None, repeats=None))
            said = []
            for check in (lambda: cli.build_setup(conf), *_runs(pend, conf["x0"], horizon)):
                try:
                    check()
                    said.append(None)
                except T.NumericsError as exc:
                    said.append(str(exc))
            assert said[0] == said[1] == said[2], (horizon, k)
            verdicts.add(said[0])
    assert verdicts == {None, BALL_MESSAGE}


LONG_MESSAGE = ("horizon T = 10000000000000000000 is too long: its run record of T + 1 rows "
                "of 5 floats is too big for an array")


@pytest.mark.parametrize("verbs", [["constants"], ["sweep"], ["run", "6"], ["run", "benchmark"]],
                         ids=" ".join)
def test_horizon_too_long_for_a_run_record_exits_3_at_once(tmp_path, capsys, verbs):
    # (T + 1) max(n, dim H) floats cannot be indexed at T = 10**19, as no
    # array of N = 10**18's condensing can; the preset never trips the guard
    conf = write_conf(tmp_path, extra="T = 10000000000000000000\n")
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), *verbs]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {LONG_MESSAGE}\n"
    assert captured.out == "" and list(out.iterdir()) == []


def test_library_runs_refuse_a_horizon_too_long_for_their_record(pend):
    for run in _runs(pend, pend.x0, 10**19):
        with pytest.raises(T.NumericsError, match=f"^{re.escape(LONG_MESSAGE)}$"):
            run()


# a plant whose input cannot move its state
NO_AUTHORITY = """\
A = [[0.5]]
B = [[0.0]]
Q = [[1.0]]
R = [[1.0]]
u_min = [-1.0]
u_max = [1.0]
x0 = [0.5]
T = 10
N = 3
ell_list = [1, 6]
psi_samples = 50
ediss_pairs = 20
ediss_horizon = 20
ediss_holdout = 10
contraction_samples = 50
lyap_samples = 20
"""


def test_plant_without_input_authority_contracts_at_its_own_rate(tmp_path, capsys):
    # with B = 0 the optimizer error never reaches the state: sigma = 0, and
    # the balancing weight is tau_star's root tau = 0, where the combined
    # rate is its limit max(beta, omega eta^ell), here the plant's own 0.5
    conf = tmp_path / "idle.conf"
    conf.write_text(NO_AUTHORITY)
    out = tmp_path / "out"
    for verbs in (["constants"], ["sweep"], ["probe"], ["run", "6"], ["run", "200"]):
        assert cli.main(["--config", str(conf), "--out", str(out), "--repeats", "0",
                         *verbs]) == 0, verbs
    assert capsys.readouterr().err == ""
    lines = (out / "constants.txt").read_text().splitlines()
    assert "tau = 0.0" in lines and "eps = 0.4999999999999999" in lines


R_W_MESSAGE = "r_w = {} is too large: the fit's deviation norms overflow"


@pytest.mark.parametrize("extra, message", [
    ("r_w = 1e160", R_W_MESSAGE.format(1e160)), ("r_w = 1e300", R_W_MESSAGE.format(1e300)),
    ("r_w = 1e300\nediss_horizon = 40", "G x or the active-set iterate contains non-finite entries"),
], ids=["1e160", "1e300", "1e300 over 40 steps"])
@pytest.mark.parametrize("verbs", [["sweep"], ["probe"]], ids=" ".join)
def test_disturbance_radius_whose_deviations_overflow_exits_3(tmp_path, capsys, verbs, extra,
                                                              message):
    # the table takes any finite r_w > 0, but from about 1e151 at these fit
    # sizes (1e144 at the preset's) the fit's deviation norms overflow.
    # That is a numerical failure, exit 3, as for an overflowing G x0:
    # where it starts depends on the plant and the draws, which the table
    # cannot see.  Over a longer horizon the disturbed states overflow
    # first, inside the reference solves, which end it the same way.  No
    # fit of c_w = inf is written for every later verb to refuse
    conf = write_conf(tmp_path, extra=extra + "\n")
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), *verbs]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {message}\n"
    assert captured.out == "" and list(out.iterdir()) == []


def test_long_lyapunov_window_fits_the_envelope_of_a_short_one(tmp_path):
    # at lyap_nv = 9000 every sampled norm underflows to 0 long before the
    # envelope's tail half; the fit drops those rows and finds the envelope
    # that lyap_nv = 4000 finds, never dividing by a power that underflowed
    def report(nv):
        out = tmp_path / str(nv)
        conf = write_conf(tmp_path, extra=f"lyap_nv = {nv}\n")
        assert cli.main(["--config", conf, "--out", str(out), "probe"]) == 0
        return dict(line.split(" = ") for line in
                    (out / "probe_report.txt").read_text().splitlines())

    long, short = report(9000), report(4000)
    assert long["passed"] == "1" and all(math.isfinite(float(long[k])) for k in ("d", "c2", "lam"))
    assert [long[k] for k in ("d", "c2", "lam")] == [short[k] for k in ("d", "c2", "lam")]


def test_out_of_memory_is_a_one_line_numerical_failure(tmp_path, capsys, monkeypatch):
    # injected: a real allocation this large may be killed instead of refused
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)")

    monkeypatch.setattr(cli, "compute_certificates", exhausted)
    assert cli.main(["--config", write_conf(tmp_path), "--out", str(tmp_path), "constants"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: out of memory: Unable to allocate 298. GiB for "
                            "an array with shape (200000, 200000)\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--seed", "x", "constants"], ["--repeats", "1.5", "run", "6"],
    ["--nope", "constants"], ["constants", "extra"], ["run", "6", "7"], ["run"],
    ["--svg", "constants"], ["run", "6", "--svg"],
], ids=lambda argv: " ".join(argv) or "no verb")
def test_bad_command_line_is_a_one_line_configuration_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_bad_command_line_exits_1_from_the_console(tmp_path):
    # the entry point's own process: one stderr line, no usage block or traceback
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "tdmpc.cli", "bogus"], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("configuration error: argument verb: invalid choice: 'bogus'")
    assert len(done.stderr.splitlines()) == 1


def test_flags_may_come_anywhere(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = str(tmp_path / "out")
    seen = set()
    for argv in (["--config", conf, "--out", out, "--repeats", "0", "run", "6"],
                 ["run", "--out", out, "6", "--repeats", "0", "--config", conf],
                 ["run", "6", "--repeats", "0", "--config", conf, "--out", out]):
        assert cli.main(argv) == 0
        seen.add((capsys.readouterr().out, (tmp_path / "out" / "run_ell6.csv").read_bytes()))
    assert len(seen) == 1


def test_help_names_the_verbs_and_exit_codes(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["-h"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for verb in ("constants", "sweep", "probe", "run", "calibrate-N"):
        assert f"{verb} (" in text, verb
    assert ("Exit codes: 0 success, 1 configuration error, 2 failed empirical or certificate "
            "check, 3 numerical failure. A bad command line") in text


def test_fit_fingerprint_covers_the_problem_not_the_run(tmp_path):
    def fingerprint(extra):
        conf = cli.resolve_config(argparse.Namespace(
            config=write_conf(tmp_path, extra=extra), seed=None, repeats=None))
        model, qp, _, _ = cli.build_setup(conf)
        return cli.fit_fingerprint(conf, model, qp)

    base = fingerprint("")
    assert base == fingerprint("") and 0 <= base < 2**64
    # T, x0, the budgets, repeats and nu_init never reach the fit
    for extra in ("T = 1\n", "x0 = [0.1, -0.2]\n", "ell_list = [1]\n", "repeats = 3\n",
                  "nu_init = optimal\n"):
        assert fingerprint(extra) == base, extra
    for extra in ("A_c = [[0.0, 1.0], [10.0, 0.0]]\n", "B_c = [[0.0], [20.0]]\n",
                  "Q = [[2.0, 0.0], [0.0, 1.0]]\n", "R = [[2.0]]\n", "N = 4\n",
                  "u_min = [-0.5]\n", "u_max = [0.5]\n", "r_w = 0.01\n",
                  "ediss_pairs = 21\n", "ediss_horizon = 21\n", "ediss_holdout = 11\n",
                  "seed = 1\n"):
        assert fingerprint(extra) != base, extra


def test_sweep_refits_a_fit_of_another_problem(tmp_path, capsys):
    other, conf = write_conf(tmp_path, extra="R = [[2.0]]\n", name="other"), write_conf(tmp_path)
    out, fresh = tmp_path / "stale", tmp_path / "fresh"
    assert cli.main(["--config", other, "--out", str(out), "probe"]) == 0
    stale = (out / "ediss_fit.txt").read_text()
    capsys.readouterr()
    assert cli.main(["--config", conf, "--out", str(out), "sweep"]) == 0
    err = capsys.readouterr().err
    assert err == f"{out / 'ediss_fit.txt'} was fitted for another problem; refitting\n"
    # the refit is the fit a sweep into an empty directory writes
    assert cli.main(["--config", conf, "--out", str(fresh), "sweep"]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "ediss_fit.txt").read_text() == (fresh / "ediss_fit.txt").read_text() != stale
    assert (out / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()
    # a fit report without a fingerprint is refitted too
    lines = (fresh / "ediss_fit.txt").read_text().splitlines()
    (fresh / "ediss_fit.txt").write_text("\n".join(lines[:-1]) + "\n")
    assert cli.main(["--config", conf, "--out", str(fresh), "sweep"]) == 0
    assert "was fitted for another problem; refitting" in capsys.readouterr().err
    assert (fresh / "ediss_fit.txt").read_text() == (out / "ediss_fit.txt").read_text()


def test_constants_reports_pending_probe_for_a_fit_of_another_problem(tmp_path, capsys):
    other, conf = write_conf(tmp_path, extra="seed = 5\n", name="other"), write_conf(tmp_path)
    out = tmp_path / "stale"
    assert cli.main(["--config", other, "--out", str(out), "probe"]) == 0
    stale = (out / "ediss_fit.txt").read_bytes()
    capsys.readouterr()
    assert cli.main(["--config", conf, "--out", str(out), "constants"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (f"{out / 'ediss_fit.txt'} was fitted for another problem; "
                            "M_bar = pending probe\n")
    assert "M_bar = pending probe" in (out / "constants.txt").read_text()
    assert (out / "ediss_fit.txt").read_bytes() == stale
    # the same problem's constants take M_bar from the fit
    assert cli.main(["--config", other, "--out", str(out), "constants"]) == 0
    assert capsys.readouterr().err == ""
    assert "M_bar = pending probe" not in (out / "constants.txt").read_text()


def test_sweep_runs_a_budget_past_int64(tmp_path):
    # the untimed kernel skips the orbit's repeats, and the rates take the
    # budget as a float exponent
    conf = write_conf(tmp_path, extra="T = 5\nell_list = [1e20]\n")
    out = tmp_path / "huge"
    assert cli.main(["--config", conf, "--out", str(out), "sweep"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith(f"{10**20},0.0,")
    # a second start, at T = 30: the orbits' periods depend on rounding.
    # From the preset's start one step's orbit has period 8, which no 60-step
    # window divides; from this one every orbit has period 2 (both measured
    # with numpy 2.4.6 and OpenBLAS 0.3.31).  The sweep must end either way:
    # in a process of its own, so a hang is a timeout, not a stuck suite
    conf = write_conf(tmp_path, extra="x0 = [-0.36254932244138943, 0.4833990965885192]\n"
                                      "T = 30\nell_list = [100000000000000000000]\n",
                      name="second.conf")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "tdmpc.cli", "--config", conf, "--out",
                           str(tmp_path / "second"), "sweep"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    rows = (tmp_path / "second" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith(f"{10**20},0.0,")


def test_sweep_runs_a_budget_too_large_for_a_float(tmp_path):
    # 10**400 has no float; its rate is eta ** 2**63, exactly 0.0
    conf = write_conf(tmp_path, extra=f"T = 3\nell_list = [{10**400}]\n")
    out = tmp_path / "huger"
    assert cli.main(["--config", conf, "--out", str(out), "sweep"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    ell, eta_pow_ell = rows[1].split(",")[:2]
    assert ell == str(10**400) and eta_pow_ell == "0.0"


def test_out_that_is_a_file_exits_1(tmp_path, capsys):
    conf = write_conf(tmp_path)
    plain = tmp_path / "plain"
    plain.write_text("not a directory\n")
    assert cli.main(["--config", conf, "--out", str(plain), "constants"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write output:") and str(plain) in err
    assert len(err.strip().splitlines()) == 1
    assert plain.read_text() == "not a directory\n"


def test_unwritable_run_csv_exits_1(tmp_path, capsys):
    # the run completes (the untimed kernel skips the orbit), but
    # run_ell<budget>.csv is a file name longer than the file system allows
    conf = write_conf(tmp_path, extra="T = 3\n")
    out = tmp_path / "long"
    assert cli.main(["--config", conf, "--out", str(out), "--repeats", "0", "run",
                     str(10**300)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write output:")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert list(out.iterdir()) == []


def test_fit_wrote_line_only_when_the_fit_is_written(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "fit"
    fit = out / "ediss_fit.txt"
    assert cli.main(["--config", conf, "--out", str(out), "probe"]) == 0
    assert f"wrote {fit}" in capsys.readouterr().out.splitlines()
    fit_bytes = fit.read_bytes()
    # a second probe reuses the fit: it neither rewrites nor reports it
    assert cli.main(["--config", conf, "--out", str(out), "probe"]) == 0
    assert "ediss_fit.txt" not in capsys.readouterr().out
    assert fit.read_bytes() == fit_bytes
    # a sweep into an empty directory fits on the fly and says so
    fresh = tmp_path / "fresh"
    assert cli.main(["--config", conf, "--out", str(fresh), "sweep"]) == 0
    assert f"wrote {fresh / 'ediss_fit.txt'}" in capsys.readouterr().out.splitlines()


def test_each_written_file_gets_one_wrote_line(tmp_path, capsys):
    conf = write_conf(tmp_path)
    out = tmp_path / "all"
    for verbs in (["probe"], ["constants"], ["sweep", "--svg"], ["calibrate-N"], ["run", "6"]):
        assert cli.main(["--config", conf, "--out", str(out), *verbs]) == 0
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert sorted(wrote) == sorted(f"wrote {path}" for path in out.iterdir())
    assert len(wrote) == 7


def test_probe_assembles_no_certificates(tmp_path, monkeypatch):
    # probe reads only the region radius r_N, which draws no rng
    def refuse(*args, **kwargs):
        raise AssertionError("probe assembled the certificates")

    monkeypatch.setattr(cli, "compute_certificates", refuse)
    conf = write_conf(tmp_path)
    assert cli.main(["--config", conf, "--out", str(tmp_path / "p"), "probe"]) == 0


def test_sweep_benchmark_run_solves_each_step_once(tmp_path, monkeypatch):
    # sweep.csv reads the benchmark run's states, never its solve times, so
    # the run makes T reference solves whatever `repeats` is
    conf = write_conf(tmp_path, extra="T = 4\nell_list = [3]\n")
    solve, bench = tdmpc.closed_loop.solve_benchmark, cli.run_benchmark
    counts = []

    def counted_bench(*args, **kwargs):
        calls = []

        def counting(*a, **k):
            calls.append(1)
            return solve(*a, **k)

        with monkeypatch.context() as m:
            m.setattr(tdmpc.closed_loop, "solve_benchmark", counting)
            run = bench(*args, **kwargs)
        counts.append(len(calls))
        return run

    monkeypatch.setattr(cli, "run_benchmark", counted_bench)
    assert cli.main(["--config", conf, "--out", str(tmp_path / "s"), "--repeats", "2",
                     "sweep"]) == 0
    assert counts == [4]
