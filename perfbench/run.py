"""Benchmark of the tdmpc command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S]

Run from the root of a checkout.  One process drives `tdmpc.cli.main`
in-process, one verb invocation at a time (a closed loop with a single
caller), and repeats the workload's verb sequence -- a pass -- until
`--seconds` have elapsed, at least once.  `--seed` reaches the program
only as the configuration key `seed` (modulo REF_SEEDS, the seeds whose
outputs are stored as references).  Every pass's outputs are checked
against the references in perfbench/reference/.

With `--trace 0` the last line reports the end-to-end metrics (medians
over passes); with `--trace 1` the tdmpc functions are wrapped from
outside (see tracer.py) and the last line reports per-layer metrics.
`--summary` runs every workload both ways and prints one table.  The
notes in perfbench/NOTES.md say why each workload exists.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

REF_SEEDS = 8
SETUP_REPEATS = 9

N5 = {"preset": "pendulum", "N": 5, "T": 30}
WORKLOADS = {
    # the paper's gap-vs-budget sweep; ediss_fit.txt is made beforehand,
    # untimed, over a 20-step rather than the default 60-step horizon so
    # that the measured passes get most of the run's time
    "sweep-n5": {
        "conf": dict(N5, repeats=0, ell_list=[1, 6, 40, 100, 1000, 5000],
                     ediss_horizon=20),
        "verbs": [["sweep"]], "prefit": True, "seeded": True,
    },
    # batched reference solves (fit, audit, Lyapunov); never runs the controller
    "probe-n5": {
        "conf": dict(N5, repeats=0),
        "verbs": [["probe"]], "prefit": False, "seeded": True,
    },
    # the controller's timed projected-gradient loop at a large budget
    "control-n5": {
        "conf": dict(N5, repeats=3),
        "verbs": [["run", "5000"]], "prefit": False, "seeded": False,
    },
    # the default preset (N = 10); iter_cap = 2 * ln(tol) / ln(eta) bounds
    # the time until `constants` fails without hiding the failure
    "preset-n10": {
        "conf": {"preset": "pendulum", "T": 5, "iter_cap": 180000},
        "verbs": [["constants"], ["run", "6"]], "prefit": False, "seeded": True,
    },
}

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import argparse, sys
sys.path.insert(0, sys.argv[1])
import tdmpc.cli as cli
conf = cli.resolve_config(argparse.Namespace(config=sys.argv[2], seed=None, repeats=None))
cli.build_setup(conf)
print(repr(time.perf_counter() - t0))
"""


def seed_key(workload, seed):
    return f"seed{seed % REF_SEEDS}" if WORKLOADS[workload]["seeded"] else "all"


def write_config(path, conf, seed):
    lines = [f"{k} = {v!r}" if not isinstance(v, str) else f"{k} = {v}"
             for k, v in conf.items()]
    path.write_text("\n".join(lines + [f"seed = {seed % REF_SEEDS}"]) + "\n")
    return path


def import_tdmpc():
    """Import tdmpc from this checkout's src/, never from anywhere else."""
    if not (SRC / "tdmpc" / "cli.py").is_file():
        sys.exit(f"no tdmpc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import tdmpc.cli
    if Path(tdmpc.cli.__file__).resolve().parent != (SRC / "tdmpc").resolve():
        sys.exit(f"imported tdmpc from {tdmpc.cli.__file__}, not from {SRC}")
    return tdmpc


def measure_setup(config):
    """Median over fresh interpreters of import + resolve_config + build_setup."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(config)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def invoke(tdmpc, argv):
    """Run one verb in-process; returns (exit code, wall s, cpu s, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = tdmpc.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        t1, c1 = time.perf_counter(), time.process_time()
    return code, t1 - t0, c1 - c0, err.getvalue()


def prefit(tdmpc, work, conf, seed):
    """Write ediss_fit.txt with the code under test, untimed.

    A one-step, one-budget sweep fits and stores the incremental-stability
    constants exactly as the timed sweep would (same seed and fit sizes).
    """
    fit_dir = work / "prefit"
    config = write_config(work / "prefit.conf", dict(conf, T=1, ell_list=[1]), seed)
    code, _, _, err = invoke(tdmpc, ["sweep", "--config", str(config), "--out", str(fit_dir)])
    if code != 0:
        sys.exit(f"preparing ediss_fit.txt failed with exit {code}: {err.strip()}")
    return fit_dir / "ediss_fit.txt"


def ctrl_iter_us(tdmpc, out_dir, verbs):
    """Controller time per iteration, sum(solve_time_s) / (T * ell), over run CSVs."""
    total = iters = 0.0
    for verb in verbs:
        if verb[0] == "run" and verb[1] != "benchmark":
            path = out_dir / f"run_ell{verb[1]}.csv"
            if path.exists():
                run = tdmpc.read_run_csv(str(path))
                total += float(run.solve_times.sum())
                iters += run.T * int(verb[1])
    return 1e6 * total / iters if iters and total else None


def run_pass(tdmpc, wl, work, index, config, fit, tracer):
    out_dir = work / f"pass{index}"
    out_dir.mkdir()
    if fit is not None:
        shutil.copy(fit, out_dir / fit.name)
    if tracer:
        tracer.reset()
    wall = cpu = 0.0
    codes = []
    for verb in wl["verbs"]:
        code, w, c, err = invoke(tdmpc, verb + ["--config", str(config), "--out", str(out_dir)])
        wall, cpu = wall + w, cpu + c
        codes.append(code)
        if code != 0:
            print(f"pass {index}: {' '.join(verb)} exited {code}: {err.strip()[-300:]}")
    failed, mismatches, messages = check.check_verbs(
        wl["name"], wl["seed_key"], out_dir, wl["verbs"], codes, tdmpc.read_run_csv)
    for msg in messages[:20]:
        print(f"pass {index}: {msg}")
    result = {"wall_s": wall, "cpu_s": cpu, "failed": failed, "mismatches": mismatches,
              "ctrl_iter_us": ctrl_iter_us(tdmpc, out_dir, wl["verbs"])}
    if tracer:
        result["layers"] = tracer.metrics(wall)
        tracer.write(work / f"spans-pass{index}.csv")
    return result


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def machine_record():
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        blas = {}
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(args):
    wl = dict(WORKLOADS[args.workload], name=args.workload,
              seed_key=seed_key(args.workload, args.seed))
    tdmpc = import_tdmpc()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = write_config(work / "workload.conf", wl["conf"], args.seed)
    setup_s = measure_setup(config)
    fit = prefit(tdmpc, work, wl["conf"], args.seed) if wl["prefit"] else None
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(tdmpc, wl, work, len(passes), config, fit, tracer))

    med = lambda key: statistics.median(p[key] for p in passes)
    attempted = len(passes) * len(wl["verbs"])
    failed = sum(p["failed"] for p in passes)
    ctrl = [p["ctrl_iter_us"] for p in passes if p["ctrl_iter_us"] is not None]
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "setup_s": setup_s, "wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ctrl_iter_us": statistics.median(ctrl) if ctrl else None,
        "fail_frac": failed / attempted,
    }
    print("machine " + json.dumps(machine_record()))
    print("summary " + json.dumps(summary))
    if args.trace:
        names = passes[0]["layers"].keys()
        metrics = {n: statistics.median(p["layers"][n] for p in passes) for n in names}
        metrics["ctrl_iter_us"] = summary["ctrl_iter_us"] or 0.0
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in metrics.items()}
    else:
        metrics = {n: {"value": summary[n], "unit": u} for n, u in
                   (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))}
    print(json.dumps({"correct": all(p["mismatches"] == 0 for p in passes),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us") or "_us_" in name:
        return "us"
    if "_ms_" in name:
        return "ms"
    return "share" if name.endswith("_share") else "count"


def tagged(lines, tag):
    return next(line for line in lines if line.startswith(tag + " "))[len(tag) + 1:]


def run_summary(args):
    """Every workload once untraced and once traced, as one table."""
    rows = []
    for name in WORKLOADS:
        got = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{name} trace={trace} failed: {proc.stderr.strip()[-500:]}")
            got[trace] = json.loads(lines[-1])
            got[trace]["summary"] = json.loads(tagged(lines, "summary"))
            if not rows and trace == 0:
                print(f"machine {tagged(lines, 'machine')}")
        s = got[0]["summary"]
        traced_wall = got[1]["metrics"]["trace.wall_s"]["value"]
        rows.append((name, s["setup_s"], s["wall_s"], s["cpu_s"], s["peak_rss_mb"],
                     s["ctrl_iter_us"], s["fail_frac"], got[0]["correct"],
                     traced_wall - s["wall_s"]))
    print(f"{'workload':<12} {'setup_s [s]':>11} {'wall_s [s]':>10} {'cpu_s [s]':>9} "
          f"{'peak_rss_mb [MB]':>16} {'ctrl_iter_us [us]':>17} {'fail_frac':>9} "
          f"{'correct':>7} {'trace_overhead [s]':>18}")
    for r in rows:
        ctrl = "-" if r[5] is None else f"{r[5]:.3f}"
        print(f"{r[0]:<12} {r[1]:>11.4f} {r[2]:>10.3f} {r[3]:>9.3f} {r[4]:>16.1f} "
              f"{ctrl:>17} {r[6]:>9.3f} {str(r[7]):>7} {r[8]:>18.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload untraced and traced; print one table")
    args = parser.parse_args()
    if args.summary:
        return run_summary(args)
    if args.workload is None:
        parser.error("--workload is required without --summary")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
