"""Command line interface around the simulation and certification pipeline.

Verbs: constants (compute every certified constant), sweep (closed-loop
runs over a list of iteration budgets with gap bounds), probe (empirical
stability and contraction checks), run (one closed-loop run to CSV), and
calibrate-N (scan the horizon for a target contraction factor).

Configuration files are flat `key = value` text; values are Python
literals (numbers, strings, or nested lists for matrices) and `#` starts
a comment.  Exit codes: 0 success, 1 configuration error, 2 failed
empirical or certificate check, 3 numerical failure.
"""

import argparse
import ast
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .certificates import (
    CertificateError,
    compute_certificates,
    sample_gamma,
    stage_cost_lipschitz,
)
from .closed_loop import (
    cost_JT,
    run_benchmark,
    run_tdmpc,
    truncate_run,
    write_run_csv,
)
from .condensed import build_condensed
from .gap import build_gap_report
from .numerics import NumericsError, mat_inv_sqrt, solve_dare, spectral_norm
from .pgm import BenchmarkSolveError, pgm_config, solve_benchmark
from .plant import BoxSet, LtiModel
from .probe import (
    EdissFit,
    ProbeError,
    audit_contraction,
    fit_ediss,
    lyapunov_finite_horizon,
    make_benchmark_evaluator,
)
from .report import kv_lines


class ConfigError(Exception):
    """Raised for missing, malformed or inconsistent configuration."""


def parse_config_text(text):
    """Parse flat `key = value` configuration text into a dict."""
    conf = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno} is not of the form key = value: {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno} has an empty key")
        try:
            conf[key] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            conf[key] = val
    return conf


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    return parse_config_text(text)


def pendulum_preset():
    """Linearized inverted pendulum on a cart, discretized at 100 ms."""
    return {
        "A_c": [[0.0, 1.0], [14.7, 0.0]],
        "B_c": [[0.0], [30.0]],
        "T_s": 0.1,
        "Q": [[1.0, 0.0], [0.0, 1.0]],
        "R": [[1.0]],
        "u_min": [-1.0],
        "u_max": [1.0],
        "N": 10,
        "T": 30,
        "x0": [-math.pi / 4.0, math.pi / 3.0],
        "seed": 0,
        "repeats": 1,
        "tol_benchmark": 1e-12,
        "nu_init": "zeros",
    }


PRESETS = {"pendulum": pendulum_preset}


def resolve_config(args):
    """Merge preset, configuration file and command-line overrides."""
    conf = {}
    file_conf = {}
    if args.config is not None:
        file_conf = load_config(args.config)
    preset_name = file_conf.pop("preset", None if args.config else "pendulum")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: {sorted(PRESETS)}"
            )
        conf.update(PRESETS[preset_name]())
    conf.update(file_conf)
    if args.seed is not None:
        conf["seed"] = args.seed
    if args.repeats is not None:
        conf["repeats"] = args.repeats
    return conf


def _require(conf, key):
    if key not in conf:
        raise ConfigError(f"missing required configuration key {key!r}")
    return conf[key]


def _array(conf, key):
    try:
        return np.asarray(_require(conf, key), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"configuration key {key!r} is not numeric: {exc}") from exc


def _matrix(conf, key):
    M = _array(conf, key)
    if M.ndim != 2:
        raise ConfigError(f"configuration key {key!r} must be a matrix (list of rows)")
    return M


def _vector(conf, key):
    return _array(conf, key).ravel()


def _whole(key, val, minimum):
    """val as an int; a bool, a string or a fraction is a configuration error."""
    whole = isinstance(val, float) and val.is_integer()
    if not (whole or isinstance(val, int)) or isinstance(val, bool) or val < minimum:
        raise ConfigError(f"configuration key {key!r} must be an integer >= {minimum}, got {val!r}")
    return int(val)


def _int(conf, key, default=None, minimum=1):
    """Checked integer value of key; without a default the key is required."""
    val = _require(conf, key) if default is None else conf.get(key, default)
    return _whole(key, val, minimum)


def build_model(conf):
    """Plant, cost matrices, input box and terminal pair from a configuration."""
    if "A_c" in conf or "B_c" in conf:
        model = LtiModel.from_continuous(
            _matrix(conf, "A_c"), _matrix(conf, "B_c"), float(_require(conf, "T_s"))
        )
    elif "A" in conf or "B" in conf:
        model = LtiModel(_matrix(conf, "A"), _matrix(conf, "B"))
    else:
        raise ConfigError("configuration must provide either (A, B) or (A_c, B_c, T_s)")
    Q = _matrix(conf, "Q")
    R = _matrix(conf, "R")
    box = BoxSet(_vector(conf, "u_min"), _vector(conf, "u_max"))
    P, K = solve_dare(model.A, model.B, Q, R)
    return model, Q, R, box, P, K


def build_setup(conf, N=None):
    """Condensed QP and optimizer configuration for the configured horizon."""
    model, Q, R, box, P, K = build_model(conf)
    if N is None:
        N = _int(conf, "N")
    qp = build_condensed(model, Q, R, P, N, box)
    cfg = pgm_config(
        qp,
        tol_benchmark=float(conf.get("tol_benchmark", 1e-12)),
        iter_cap=_int(conf, "iter_cap", 10**6),
    )
    return model, qp, cfg, K


def default_ell_list():
    """30 logarithmically spaced iteration budgets between 1 and 5000."""
    pts = np.unique(np.round(np.logspace(0.0, math.log10(5000.0), 30)).astype(int))
    return [int(e) for e in pts]


def _ell_list(conf):
    """Sweep budgets, ascending and deduplicated so rate columns are monotone."""
    if "ell_list" in conf:
        ells = conf["ell_list"]
        if not isinstance(ells, (list, tuple)) or not ells:
            raise ConfigError("configuration key 'ell_list' must be a nonempty list")
        return sorted({_whole("ell_list", e, 1) for e in ells})
    return default_ell_list()


def _closed_loop_inputs(conf, model):
    """Initial state, horizon T and timing repeats per step (0 disables timing)."""
    x0 = _vector(conf, "x0")
    if x0.size != model.n:
        raise ConfigError(f"configuration key 'x0' has {x0.size} entries, expected {model.n}")
    return x0, _int(conf, "T"), _int(conf, "repeats", 1, minimum=0)


def _nu_init(conf, qp, cfg, x0):
    mode = conf.get("nu_init", "zeros")
    if mode == "zeros":
        return None
    if mode == "optimal":
        return solve_benchmark(qp, cfg, x0)
    raise ConfigError(f"configuration key 'nu_init' must be 'zeros' or 'optimal', got {mode!r}")


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _report(path, lines):
    """Write a report and echo it to stdout."""
    _write_lines(path, lines)
    print("\n".join(lines))
    print(f"wrote {path}")


def _gamma_sampler(qp, cfg, r_N):
    return lambda rng, count: sample_gamma(qp, cfg, r_N, rng, count)


def load_ediss_fit(path):
    """Load a previously written incremental-stability fit report."""
    conf = load_config(path)
    for key in ("c0", "c_w", "rho", "r_w"):
        if key not in conf:
            raise ConfigError(f"fit report {path} is missing key {key!r}")
    return EdissFit(
        float(conf["c0"]), float(conf["c_w"]), float(conf["rho"]), float(conf["r_w"]),
        _int(conf, "pairs", 0, minimum=0), _int(conf, "horizon", 0, minimum=0),
        float(conf.get("worst_slack", 0.0)),
    )


def _saved_fit(out_dir):
    """The fit report a probe left in the output directory (None if absent), and its path."""
    path = os.path.join(out_dir, "ediss_fit.txt")
    return (load_ediss_fit(path) if os.path.exists(path) else None), path


def _fit_or_load_ediss(conf, out_dir, model, qp, cfg, certs_r_N, rng):
    """Reuse a fit report from the output directory or compute a fresh one."""
    fit, path = _saved_fit(out_dir)
    if fit is not None:
        return fit, path
    evaluator = make_benchmark_evaluator(model, qp, cfg)
    sampler = _gamma_sampler(qp, cfg, certs_r_N)
    r_w = float(
        conf.get("r_w", 0.01 * certs_r_N * spectral_norm(mat_inv_sqrt(qp.P, "P")))
    )
    fit = fit_ediss(
        evaluator, sampler, rng, r_w,
        pairs=_int(conf, "ediss_pairs", 200),
        horizon=_int(conf, "ediss_horizon", 60),
        holdout_pairs=_int(conf, "ediss_holdout", 100),
    )
    _write_lines(path, fit.to_lines())
    return fit, path


def _rng(conf):
    return np.random.default_rng(_int(conf, "seed", 0, minimum=0))


def cmd_constants(conf, out_dir):
    rng = _rng(conf)
    model, qp, cfg, K = build_setup(conf)
    # reuse incremental-stability constants when a probe already ran into
    # this output directory; M_bar stays pending otherwise
    certs = compute_certificates(
        model, qp, cfg, K, rng=rng,
        psi_samples=_int(conf, "psi_samples", 500), ediss=_saved_fit(out_dir)[0],
    )
    _report(os.path.join(out_dir, "constants.txt"), certs.to_lines())
    return 0


def cmd_probe(conf, out_dir):
    rng = _rng(conf)
    model, qp, cfg, K = build_setup(conf)
    certs = compute_certificates(model, qp, cfg, K)
    fit, fit_path = _fit_or_load_ediss(conf, out_dir, model, qp, cfg, certs.r_N, rng)
    sampler = _gamma_sampler(qp, cfg, certs.r_N)
    worst = audit_contraction(
        qp, cfg, sampler, rng,
        samples=_int(conf, "contraction_samples", 1000),
        ell_max=_int(conf, "contraction_ell_max", 50),
    )
    lyap = lyapunov_finite_horizon(
        make_benchmark_evaluator(model, qp, cfg), sampler, rng,
        N_V=_int(conf, "lyap_nv", 12),
        samples=_int(conf, "lyap_samples", 200),
        fit_horizon=_int(conf, "ediss_horizon", 60),
    )
    print(f"wrote {fit_path}")
    _report(os.path.join(out_dir, "probe_report.txt"),
            fit.to_lines() + kv_lines([("contraction_worst", worst)]) + lyap.to_lines())
    if not lyap.passed:
        print("lyapunov sandwich or decrease check failed", file=sys.stderr)
        return 2
    return 0


def cmd_run(conf, out_dir, target):
    if target != "benchmark" and not (str(target).isdigit() and int(target) >= 1):
        raise ConfigError(
            f"run target must be an iteration budget >= 1 or 'benchmark', got {target!r}"
        )
    model, qp, cfg, K = build_setup(conf)
    x0, T, repeats = _closed_loop_inputs(conf, model)
    if target == "benchmark":
        run = run_benchmark(model, qp, cfg, x0, T, repeats=repeats)
        name = "run_benchmark.csv"
    else:
        ell = int(target)
        nu0 = _nu_init(conf, qp, cfg, x0)
        run = run_tdmpc(model, qp, cfg, x0, ell, T, nu_init=nu0, repeats=repeats)
        name = f"run_ell{ell}.csv"
    path = os.path.join(out_dir, name)
    write_run_csv(run, path)
    J = cost_JT(run, qp.Q, qp.R, qp.P)
    print("\n".join(kv_lines([("J_T", J), ("steps", run.T), ("stable", run.stable)])))
    print(f"wrote {path}")
    return 0


def cmd_sweep(conf, out_dir, svg=False):
    rng = _rng(conf)
    model, qp, cfg, K = build_setup(conf)
    x0, T, repeats = _closed_loop_inputs(conf, model)
    ells = _ell_list(conf)
    # the decay check draws from rng before the fit does
    certs = compute_certificates(
        model, qp, cfg, K, rng=rng, psi_samples=_int(conf, "psi_samples", 500)
    )
    fit, _ = _fit_or_load_ediss(conf, out_dir, model, qp, cfg, certs.r_N, rng)
    certs = replace(certs, M_bar=stage_cost_lipschitz(qp, certs.r_N, fit)[2], ediss=fit)

    bench = run_benchmark(model, qp, cfg, x0, T, repeats=repeats)
    nu0 = _nu_init(conf, qp, cfg, x0)
    rows = ["ell,eta_pow_ell,R_T_empirical,complexity_cor1,bound_thm8,"
            "S_T,S_T2,compute_time_s,stable_flag"]
    plot_pts = []
    for ell in ells:
        run = run_tdmpc(model, qp, cfg, x0, ell, T, nu_init=nu0, repeats=repeats)
        gap = build_gap_report(run, qp, certs, truncate_run(bench, run.T))
        compute_time = float(np.sum(run.solve_times))
        cells = (gap.rate_max, gap.R_T, gap.complexity, gap.bound, gap.S_T, gap.S_T2,
                 compute_time)
        rows.append(",".join([str(ell), *(repr(float(v)) for v in cells),
                              str(int(run.stable))]))
        plot_pts.append((ell, compute_time, gap.R_T, gap.complexity, gap.bound))
        if not run.stable:
            print(f"ell = {ell}: closed loop diverged after {run.T} steps", file=sys.stderr)
    path = os.path.join(out_dir, "sweep.csv")
    _write_lines(path, rows)
    print(f"wrote {path}")
    if svg:
        # gap and complexity against compute time when timing ran, else
        # against the iteration budget (repeats = 0 writes zero times)
        svg_path = os.path.join(out_dir, "sweep.svg")
        timed = any(p[1] > 0.0 for p in plot_pts)
        xs = [p[1] if timed else p[0] for p in plot_pts]
        xlabel = "compute time [s]" if timed else "iterations per step"
        series = [
            ("realized gap", xs, [p[2] for p in plot_pts]),
            ("complexity", xs, [p[3] for p in plot_pts]),
            ("certified bound", xs, [p[4] for p in plot_pts]),
        ]
        svg_line_plot(svg_path, series, xlabel, "cost gap")
        print(f"wrote {svg_path}")
    return 0


def cmd_calibrate_n(conf, out_dir):
    model, Q, R, box, P, K = build_model(conf)
    lo, hi = 0.91, 0.93
    n_max = _int(conf, "calibrate_max", 40)
    lines = []
    chosen = None
    for N in range(1, n_max + 1):
        qp = build_condensed(model, Q, R, P, N, box)
        cfg = pgm_config(qp)
        pow6 = cfg.eta ** 6
        lines.append(f"N = {N}  eta = {cfg.eta!r}  eta_pow_6 = {pow6!r}")
        if chosen is None and lo <= pow6 <= hi:
            chosen = N
            lines.append(f"chosen_N = {N}")
            break
    _report(os.path.join(out_dir, "calibration.txt"), lines)
    if chosen is None:
        print(
            f"no horizon up to {n_max} lands eta^6 in [{lo}, {hi}]", file=sys.stderr
        )
        return 2
    return 0


def svg_line_plot(path, series, xlabel, ylabel):
    """Minimal self-contained log-log line plot.

    series is a list of (label, xs, ys); points with nonpositive or
    non-finite coordinates are dropped (the plot is logarithmic).
    """
    W, H = 720, 480
    ml, mr, mt, mb = 70, 20, 20, 50
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    series = [(label, [(x, y) for x, y in zip(xs, ys)
                       if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)])
              for label, xs, ys in series]
    pts = [p for _, kept in series for p in kept]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    if pts:
        lx0 = math.floor(math.log10(min(p[0] for p in pts)))
        lx1 = math.ceil(math.log10(max(p[0] for p in pts)))
        ly0 = math.floor(math.log10(min(p[1] for p in pts)))
        ly1 = math.ceil(math.log10(max(p[1] for p in pts)))
        lx1 = max(lx1, lx0 + 1)
        ly1 = max(ly1, ly0 + 1)

        def px(x):
            return ml + (math.log10(x) - lx0) / (lx1 - lx0) * (W - ml - mr)

        def py(y):
            return H - mb - (math.log10(y) - ly0) / (ly1 - ly0) * (H - mt - mb)

        for k in range(lx0, lx1 + 1):
            x = px(10.0 ** k)
            parts.append(
                f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" y2="{H - mb}" '
                'stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{H - mb + 18}" font-size="12" '
                f'text-anchor="middle">1e{k}</text>'
            )
        for k in range(ly0, ly1 + 1):
            y = py(10.0 ** k)
            parts.append(
                f'<line x1="{ml}" y1="{y:.1f}" x2="{W - mr}" y2="{y:.1f}" '
                'stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{ml - 6}" y="{y + 4:.1f}" font-size="12" '
                f'text-anchor="end">1e{k}</text>'
            )
        for i, (label, kept) in enumerate(series):
            coords = [f"{px(x):.1f},{py(y):.1f}" for x, y in kept]
            color = colors[i % len(colors)]
            if coords:
                parts.append(
                    f'<polyline points="{" ".join(coords)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
            parts.append(
                f'<text x="{W - mr - 160}" y="{mt + 16 + 16 * i}" font-size="12" '
                f'fill="{color}">{label}</text>'
            )
    parts.append(
        f'<text x="{(ml + W - mr) / 2:.1f}" y="{H - 12}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + H - mb) / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + H - mb) / 2:.1f})">'
        f"{ylabel}</text>"
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def main(argv=None):
    # the shared flags are accepted both before and after the verb; the
    # SUPPRESS defaults keep the subparser pass from clobbering values
    # already parsed ahead of the verb, so the defaults live in the namespace
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="path to a key = value file")
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--seed", type=int, help="override the rng seed")
    common.add_argument("--svg", action="store_true", help="also write an SVG plot")
    common.add_argument(
        "--repeats", type=int,
        help="timing repetitions per step; 0 disables timing for reproducible output",
    )
    parser = argparse.ArgumentParser(
        prog="tdmpc",
        description="closed-loop simulation and certification of suboptimal "
                    "time-distributed linear-quadratic MPC",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("constants", parents=[common],
                   help="compute and report every certified constant")
    sub.add_parser("sweep", parents=[common],
                   help="closed-loop sweep over iteration budgets")
    sub.add_parser("probe", parents=[common],
                   help="empirical stability and contraction checks")
    runp = sub.add_parser("run", parents=[common],
                          help="one closed-loop run written to CSV")
    runp.add_argument("target", help="iteration budget or 'benchmark'")
    sub.add_parser("calibrate-N", parents=[common],
                   help="scan horizons for the target contraction factor")
    args = parser.parse_args(argv, argparse.Namespace(
        config=None, out=".", seed=None, svg=False, repeats=None))

    try:
        conf = resolve_config(args)
        os.makedirs(args.out, exist_ok=True)
        if args.verb == "sweep":
            return cmd_sweep(conf, args.out, svg=args.svg)
        if args.verb == "run":
            return cmd_run(conf, args.out, args.target)
        verbs = {"constants": cmd_constants, "probe": cmd_probe, "calibrate-N": cmd_calibrate_n}
        return verbs[args.verb](conf, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (CertificateError, ProbeError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, BenchmarkSolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
