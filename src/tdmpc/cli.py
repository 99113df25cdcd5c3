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
    region_radius,
    sample_gamma,
    stage_cost_lipschitz,
)
from .closed_loop import (
    _check_start,
    cost_JT,
    run_benchmark,
    run_tdmpc,
    truncate_run,
    write_run_csv,
)
from .condensed import build_condensed
from .gap import build_gap_report
from .numerics import NumericsError, mat_inv_sqrt, solve_dare, spectral_norm
from .pgm import BenchmarkSolveError, certified_rate, pgm_config, solve_benchmark
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
    }


PRESETS = {"pendulum": pendulum_preset}


def _number(ok, what, kind=float):
    """Check of a real number v (not a bool or a string) with ok(v); returns kind(v)."""
    def check(val):
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not ok(val):
            raise ValueError(f"must be {what}")
        return kind(val)
    return check


def _count(minimum):
    """Check of a whole number >= minimum (5 or 5.0, not 2.5, '5' or True); returns an int."""
    return _number(lambda v: v >= minimum and v % 1 == 0, f"an integer >= {minimum}", int)


_positive = _number(lambda v: 0 < v < math.inf, "a finite number > 0")
_nonnegative = _number(lambda v: 0 <= v < math.inf, "a finite number >= 0")
_not_nan = _number(lambda v: not math.isnan(v), "a number other than nan")


def _slack(val):
    """Holdout slack: any number but nan; the parser hands a saved inf over as 'inf'."""
    return _not_nan(math.inf if val == "inf" else val)


def _choice(*options):
    def check(val):
        if val not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return val
    return check


def _floats(val):
    try:
        return np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("must be numeric") from None


def _matrix(val):
    M = _floats(val)
    if M.ndim != 2:
        raise ValueError("must be a matrix (list of rows)")
    return M


def _vector(val):
    return _floats(val).ravel()


def _ell_list(val):
    """Sweep budgets, ascending and deduplicated so rate columns are monotone."""
    if not isinstance(val, (list, tuple)) or not val:
        raise ValueError("must be a nonempty list")
    return sorted({_count(1)(ell) for ell in val})


REQUIRED = object()  # the default of a key that must be given

# every configuration key, its check and its default; a None default lets
# the key stay absent: the two plant forms (build_model takes exactly one),
# r_w and ell_list (derived where they are used)
CONFIG_KEYS = {
    "A_c": (_matrix, None), "B_c": (_matrix, None), "T_s": (_positive, None),
    "A": (_matrix, None), "B": (_matrix, None),
    "Q": (_matrix, REQUIRED), "R": (_matrix, REQUIRED),
    "u_min": (_vector, REQUIRED), "u_max": (_vector, REQUIRED),
    "N": (_count(1), REQUIRED), "T": (_count(1), REQUIRED), "x0": (_vector, REQUIRED),
    "seed": (_count(0), 0), "repeats": (_count(0), 1),
    "tol_benchmark": (_positive, 1e-12), "iter_cap": (_count(1), 10**6),
    "nu_init": (_choice("zeros", "optimal"), "zeros"), "ell_list": (_ell_list, None),
    "psi_samples": (_count(1), 500), "r_w": (_positive, None),
    "ediss_pairs": (_count(2), 200), "ediss_horizon": (_count(4), 60),
    "ediss_holdout": (_count(1), 100),
    "contraction_samples": (_count(1), 1000), "contraction_ell_max": (_count(1), 50),
    "lyap_nv": (_count(1), 12), "lyap_samples": (_count(1), 200),
    "calibrate_max": (_count(1), 40),
}

# the keys of a saved fit report: the fields of EdissFit and the
# fingerprint of the problem it was fitted for (none in an older report)
FIT_KEYS = {
    "c0": (_nonnegative, REQUIRED), "c_w": (_nonnegative, REQUIRED),
    "rho": (_number(lambda v: 0 < v < 1, "a number in (0, 1)"), REQUIRED),
    "r_w": (_positive, REQUIRED),
    "pairs": (_count(0), 0), "horizon": (_count(0), 0), "worst_slack": (_slack, 0.0),
    "fingerprint": (_count(0), None),
}


def checked(raw, keys, where="configuration key"):
    """raw checked against a table {key: (check, default)}, defaults filled in.

    A key outside the table, a missing REQUIRED key and a value its check
    rejects (the check raises ValueError) are configuration errors whose
    one-line messages start with `where` and the key.
    """
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{where} {key!r} is unknown")
    conf = {}
    for key, (check, default) in keys.items():
        if key not in raw and default is REQUIRED:
            raise ConfigError(f"{where} {key!r} is missing")
        try:
            conf[key] = check(raw[key]) if key in raw else default
        except ValueError as exc:
            raise ConfigError(f"{where} {key!r} {exc}, got {raw[key]!r}") from exc
    return conf


def resolve_config(args):
    """Merge preset, configuration file and command-line overrides, and check them."""
    conf = {}
    file_conf = {} if args.config is None else load_config(args.config)
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
    return checked(conf, CONFIG_KEYS)


def build_model(conf):
    """Plant, cost matrices, input box and terminal pair from a checked configuration."""
    given = {key for key in ("A_c", "B_c", "T_s", "A", "B") if conf[key] is not None}
    if given == {"A_c", "B_c", "T_s"}:
        model = LtiModel.from_continuous(conf["A_c"], conf["B_c"], conf["T_s"])
    elif given == {"A", "B"}:
        model = LtiModel(conf["A"], conf["B"])
    else:
        raise ConfigError("configuration must provide either (A, B) or (A_c, B_c, T_s)")
    Q, R = conf["Q"], conf["R"]
    for key, M, dim in (("Q", Q, model.n), ("R", R, model.m)):
        if M.shape != (dim, dim):
            raise ConfigError(
                f"configuration key {key!r} has shape {M.shape}, expected {(dim, dim)}")
    try:
        box = BoxSet(conf["u_min"], conf["u_max"])
    except NumericsError as exc:
        raise ConfigError(f"configuration keys 'u_min'/'u_max': {exc}") from exc
    if box.dim != model.m:
        raise ConfigError(
            f"configuration keys 'u_min'/'u_max' have {box.dim} entries, expected {model.m}"
        )
    # the certificates and probes square norms of points and differences in the horizon's box
    with np.errstate(over="ignore"):
        if not np.isfinite(conf["N"] * np.square(box.upper - box.lower).sum()):
            raise ConfigError("configuration keys 'u_min'/'u_max': the squared diameter "
                              "N ||u_max - u_min||^2 of the horizon's input box overflows")
    if conf["x0"].size != model.n:
        raise ConfigError(
            f"configuration key 'x0' has {conf['x0'].size} entries, expected {model.n}"
        )
    # every verb ends a non-finite start here, before any work
    _check_start(model, conf["x0"], conf["T"])
    P, K = solve_dare(model.A, model.B, Q, R)
    return model, Q, R, box, P, K


def build_setup(conf):
    """Condensed QP and optimizer configuration for the configured horizon.

    Also ends a finite x0 whose G x0 overflows, before any fit or solve
    could warn about it; calibrate-N never forms G x0.
    """
    model, Q, R, box, P, K = build_model(conf)
    qp = build_condensed(model, Q, R, P, conf["N"], box)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(qp.G @ conf["x0"]).all()
    if not finite:
        raise NumericsError("G x0 contains non-finite entries")
    cfg = pgm_config(qp, tol_benchmark=conf["tol_benchmark"], iter_cap=conf["iter_cap"])
    return model, qp, cfg, K


def default_ell_list():
    """30 logarithmically spaced iteration budgets between 1 and 5000."""
    pts = np.unique(np.round(np.logspace(0.0, math.log10(5000.0), 30)).astype(int))
    return [int(e) for e in pts]


def _write_lines(path, lines):
    """Write an artefact and say so on stdout."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _report(path, lines):
    """Echo a report to stdout and write it."""
    print("\n".join(lines))
    _write_lines(path, lines)


def _gamma_sampler(qp, cfg, r_N):
    return lambda rng, count: sample_gamma(qp, cfg, r_N, rng, count)


def fit_fingerprint(conf, model, qp):
    """64 bits of sha256 over the problem that an incremental-stability fit belongs to.

    Covers A, B, Q, R, P, N, the input box, r_w, the fit sizes and the
    seed.  T, x0, the budgets, repeats and nu_init stay out: the fit never
    reads them, so one fit serves every run of its problem.
    """
    # imported here: hashlib maps OpenSSL, 3.5 MB of resident memory that
    # `run` never needs (the verbs that fit import it through numpy.random)
    import hashlib

    digest = hashlib.sha256()
    for a in (model.A, model.B, qp.Q, qp.R, qp.P, qp.u_box.lower, qp.u_box.upper):
        digest.update(repr(a.shape).encode() + np.ascontiguousarray(a, dtype=float).tobytes())
    keys = ("N", "r_w", "ediss_pairs", "ediss_horizon", "ediss_holdout", "seed")
    digest.update(repr([conf[key] for key in keys]).encode())
    return int.from_bytes(digest.digest()[:8], "big")


def load_ediss_fit(path):
    """A saved incremental-stability fit report as (EdissFit, its fingerprint or None)."""
    raw = checked(load_config(path), FIT_KEYS, f"fit report {path}: key")
    fingerprint = raw.pop("fingerprint")
    return EdissFit(**raw), fingerprint


def _saved_fit(out_dir, fingerprint, otherwise):
    """The fit report in the output directory (None if absent or of another problem), and its path.

    A report of another problem is reported on stderr, with what happens `otherwise`.
    """
    path = os.path.join(out_dir, "ediss_fit.txt")
    if not os.path.exists(path):
        return None, path
    fit, saved = load_ediss_fit(path)
    if saved != fingerprint:
        print(f"{path} was fitted for another problem; {otherwise}", file=sys.stderr)
        return None, path
    return fit, path


def _fit_or_load_ediss(conf, out_dir, model, qp, cfg, r_N, rng):
    """Reuse the fit report of this problem from the output directory or write a fresh one."""
    fingerprint = fit_fingerprint(conf, model, qp)
    fit, path = _saved_fit(out_dir, fingerprint, "refitting")
    if fit is not None:
        return fit
    evaluator = make_benchmark_evaluator(model, qp, cfg)
    sampler = _gamma_sampler(qp, cfg, r_N)
    # a checked r_w is > 0, so only an absent one takes the default
    r_w = conf["r_w"] or float(0.01 * r_N * spectral_norm(mat_inv_sqrt(qp.P, "P")))
    fit = fit_ediss(
        evaluator, sampler, rng, r_w, pairs=conf["ediss_pairs"],
        horizon=conf["ediss_horizon"], holdout_pairs=conf["ediss_holdout"],
    )
    _write_lines(path, fit.to_lines() + kv_lines([("fingerprint", fingerprint)]))
    return fit


def cmd_constants(conf, out_dir):
    rng = np.random.default_rng(conf["seed"])
    model, qp, cfg, K = build_setup(conf)
    # reuse incremental-stability constants when a probe of this problem
    # already ran into this output directory; M_bar stays pending otherwise
    fit = _saved_fit(out_dir, fit_fingerprint(conf, model, qp), "M_bar = pending probe")[0]
    certs = compute_certificates(model, qp, cfg, K, rng=rng, psi_samples=conf["psi_samples"],
                                 ediss=fit)
    _report(os.path.join(out_dir, "constants.txt"), certs.to_lines())
    return 0


def cmd_probe(conf, out_dir):
    rng = np.random.default_rng(conf["seed"])
    model, qp, cfg, K = build_setup(conf)
    r_N = region_radius(qp, K)[2]
    fit = _fit_or_load_ediss(conf, out_dir, model, qp, cfg, r_N, rng)
    sampler = _gamma_sampler(qp, cfg, r_N)
    worst = audit_contraction(
        qp, cfg, sampler, rng,
        samples=conf["contraction_samples"], ell_max=conf["contraction_ell_max"],
    )
    lyap = lyapunov_finite_horizon(
        make_benchmark_evaluator(model, qp, cfg), sampler, rng,
        N_V=conf["lyap_nv"], samples=conf["lyap_samples"], fit_horizon=conf["ediss_horizon"],
    )
    _report(os.path.join(out_dir, "probe_report.txt"),
            fit.to_lines() + kv_lines([("contraction_worst", worst)]) + lyap.to_lines())
    if not lyap.passed:
        print("lyapunov sandwich or decrease check failed", file=sys.stderr)
        return 2
    return 0


def cmd_run(conf, out_dir, target):
    if target != "benchmark" and not (str(target).isdecimal() and int(target) >= 1):
        raise ConfigError(
            f"run target must be an iteration budget >= 1 or 'benchmark', got {target!r}"
        )
    model, qp, cfg, K = build_setup(conf)
    x0, T, repeats = conf["x0"], conf["T"], conf["repeats"]
    if target == "benchmark":
        run = run_benchmark(model, qp, cfg, x0, T, repeats=repeats)
        name = "run_benchmark.csv"
    else:
        ell = int(target)
        nu0 = solve_benchmark(qp, cfg, x0) if conf["nu_init"] == "optimal" else None
        run = run_tdmpc(model, qp, cfg, x0, ell, T, nu_init=nu0, repeats=repeats)
        name = f"run_ell{ell}.csv"
    path = os.path.join(out_dir, name)
    write_run_csv(run, path)
    J = cost_JT(run, qp.Q, qp.R, qp.P)
    print("\n".join(kv_lines([("J_T", J), ("steps", run.T), ("stable", run.stable)])))
    print(f"wrote {path}")
    return 0


def cmd_sweep(conf, out_dir, svg=False):
    rng = np.random.default_rng(conf["seed"])
    model, qp, cfg, K = build_setup(conf)
    x0, T, repeats = conf["x0"], conf["T"], conf["repeats"]
    ells = conf["ell_list"] or default_ell_list()
    # the decay check draws from rng before the fit does
    certs = compute_certificates(model, qp, cfg, K, rng=rng, psi_samples=conf["psi_samples"])
    fit = _fit_or_load_ediss(conf, out_dir, model, qp, cfg, certs.r_N, rng)
    certs = replace(certs, M_bar=stage_cost_lipschitz(qp, certs.r_N, fit)[2], ediss=fit)

    # sweep.csv reads the benchmark's states, never its solve times
    bench = run_benchmark(model, qp, cfg, x0, T, repeats=0)
    nu0 = solve_benchmark(qp, cfg, x0) if conf["nu_init"] == "optimal" else None
    rows = ["ell,eta_pow_ell,R_T_empirical,complexity_cor1,bound_thm8,"
            "S_T,S_T2,compute_time_s,stable_flag"]
    plot_pts = []
    for ell in ells:
        run = run_tdmpc(model, qp, cfg, x0, ell, T, nu_init=nu0, repeats=repeats)
        # a diverged benchmark ends early: compare over the common prefix
        common = min(run.T, bench.T)
        if common < run.T:
            print(f"ell = {ell}: benchmark diverged after {bench.T} steps; "
                  f"gap over the first {common} of {run.T} steps", file=sys.stderr)
        gap = build_gap_report(truncate_run(run, common), qp, certs, truncate_run(bench, common))
        compute_time = float(np.sum(run.solve_times))
        cells = (gap.rate_max, gap.R_T, gap.complexity, gap.bound, gap.S_T, gap.S_T2,
                 compute_time)
        rows.append(",".join([str(ell), *(repr(float(v)) for v in cells),
                              str(int(run.stable))]))
        plot_pts.append((ell, compute_time, gap.R_T, gap.complexity, gap.bound))
        if not run.stable:
            print(f"ell = {ell}: closed loop diverged after {run.T} steps", file=sys.stderr)
    _write_lines(os.path.join(out_dir, "sweep.csv"), rows)
    if svg:
        # gap and complexity against compute time when timing ran, else
        # against the iteration budget (repeats = 0 writes zero times)
        timed = any(p[1] > 0.0 for p in plot_pts)
        xs = [p[1] if timed else p[0] for p in plot_pts]
        xlabel = "compute time [s]" if timed else "iterations per step"
        series = [
            ("realized gap", xs, [p[2] for p in plot_pts]),
            ("complexity", xs, [p[3] for p in plot_pts]),
            ("certified bound", xs, [p[4] for p in plot_pts]),
        ]
        svg_line_plot(os.path.join(out_dir, "sweep.svg"), series, xlabel, "cost gap")
    return 0


def cmd_calibrate_n(conf, out_dir):
    model, Q, R, box, P, K = build_model(conf)
    lo, hi = 0.91, 0.93
    n_max = conf["calibrate_max"]
    lines = []
    chosen = None
    for N in range(1, n_max + 1):
        eta = build_condensed(model, Q, R, P, N, box).step.eta
        pow6 = certified_rate(eta, 6)
        lines.append(f"N = {N}  eta = {eta!r}  eta_pow_6 = {pow6!r}")
        if lo <= pow6 <= hi:
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


def _log_axis(values, start, end):
    """Decades k0..k1 (at least one) spanning values > 0 and the map 10^k0..10^k1 -> start..end."""
    k0 = math.floor(math.log10(min(values)))
    k1 = max(math.ceil(math.log10(max(values))), k0 + 1)
    return range(k0, k1 + 1), lambda v: start + (math.log10(v) - k0) / (k1 - k0) * (end - start)


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
        xdecades, px = _log_axis([p[0] for p in pts], ml, W - mr)
        ydecades, py = _log_axis([p[1] for p in pts], H - mb, mt)
        for k in xdecades:
            x = px(10.0 ** k)
            parts.append(
                f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" y2="{H - mb}" '
                'stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{H - mb + 18}" font-size="12" '
                f'text-anchor="middle">1e{k}</text>'
            )
        for k in ydecades:
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
    _write_lines(path, parts)


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
    except OSError as exc:
        # --out cannot be created or an output cannot be written there
        print(f"configuration error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
