"""Command-line interface: config parsing, verbs, artifacts, and exit codes."""

import argparse
import inspect
import math
import re
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


def test_resolve_config_defaults_to_pendulum_preset():
    args = argparse.Namespace(config=None, seed=None, repeats=None)
    conf = cli.resolve_config(args)
    assert conf["N"] == 10
    assert conf["T"] == 30
    assert np.array_equal(conf["A_c"], [[0.0, 1.0], [14.7, 0.0]])
    assert conf["x0"][0] == pytest.approx(-math.pi / 4.0)
    args = argparse.Namespace(config=None, seed=7, repeats=0)
    conf = cli.resolve_config(args)
    assert conf["seed"] == 7 and conf["repeats"] == 0


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
    certs = T.compute_certificates(
        model, qp, cfg, K, ediss=cli.load_ediss_fit(str(out / "ediss_fit.txt"))[0]
    )
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
    certs = T.compute_certificates(
        model, qp, cfg, K, ediss=cli.load_ediss_fit(str(out / "ediss_fit.txt"))[0]
    )
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
])
def test_bad_config_value_exits_1(tmp_path, capsys, extra, verbs, shown):
    conf = write_conf(tmp_path, extra=extra + "\n")
    assert cli.main(["--config", conf, "--out", str(tmp_path), *verbs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and shown in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key, value", [
    ("rho", "1.5"), ("c_w", "-3.0"), ("c_w", "fast"), ("c0", "nan"), ("r_w", "-1.0"),
    ("worst_slack", "bad"), ("pairs", "x"), ("horizon", "-1"),
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verbs, extra, message", [
    (["run", "3"], INF_X0, INF_MESSAGE), (["run", "benchmark"], INF_X0, INF_MESSAGE),
    (["sweep"], INF_X0, INF_MESSAGE), (["constants"], INF_X0, INF_MESSAGE),
    (["probe"], INF_X0, INF_MESSAGE), (["calibrate-N"], INF_X0, INF_MESSAGE),
    (["run", "3"], INF_X0 + "nu_init = optimal\n", INF_MESSAGE),
    (["sweep"], OVERFLOW_X0, OVERFLOW_MESSAGE), (["run", "3"], OVERFLOW_X0, OVERFLOW_MESSAGE),
], ids=["run 3", "run benchmark", "sweep", "constants", "probe", "calibrate-N",
        "run 3 nu_init=optimal", "sweep G x0 overflow", "run 3 G x0 overflow"])
def test_non_finite_x0_exits_3_at_once(tmp_path, capsys, verbs, extra, message):
    # 1e400 parses to inf, and G x0 overflows at 1e308; the loop would
    # otherwise run the fallback on NaN to iter_cap.  Every verb ends before
    # any fit or solve, with no numpy warning, so nothing is fitted or written
    conf = write_conf(tmp_path, extra=extra)
    out = tmp_path / "out"
    assert cli.main(["--config", conf, "--out", str(out), *verbs]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {message}\n"
    assert captured.out == "" and list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_calibrate_n_never_forms_g_x0(tmp_path, capsys):
    conf = write_conf(tmp_path, extra=OVERFLOW_X0)
    assert cli.main(["--config", conf, "--out", str(tmp_path / "cal"), "calibrate-N"]) == 0
    assert capsys.readouterr().err == ""


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
