"""Numerical comparison of a workload's outputs against stored references.

References were recorded with `perfbench/record.py` and live under
`perfbench/reference/<workload>/<seed key>/`, with a `meta.json` that
holds each verb's exit code and output files and the reference solver's
resolution `res = tol_benchmark / (1 - eta)`.  Outputs are compared by
value, never byte for byte, with one tolerance class per quantity:

- exact: integers, flags and strings;
- tight: certified constants computed in closed form (relative 1e-9);
- res: quantities resolved by the reference minimizer, which is only
  accurate to about `res` (absolute RES_FACTOR * res * (1 + |ref|));
- fit: empirical constants that are maxima or minima of ratios over
  sampled trajectories (relative FIT_RTOL).
"""

import csv
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

TIGHT_RTOL = 1e-9
RES_FACTOR = 10.0
FIT_RTOL = 1e-6

SWEEP_COLUMNS = {
    "ell": "exact", "eta_pow_ell": "tight", "R_T_empirical": "res",
    "complexity_cor1": "res", "bound_thm8": "fit", "S_T": "res", "S_T2": "res",
    "compute_time_s": None, "stable_flag": "exact",
}
PROBE_KEYS = {
    "pairs": "exact", "horizon": "exact", "N_V": "exact", "samples": "exact",
    "passed": "exact", "r_w": "tight", "c1": "tight",
}
CONSTANT_KEYS = {"N": "exact", "ell_star": "exact", "psi_decay_worst": "res"}


def close(got, ref, kind, res):
    """True when `got` matches `ref` under tolerance class `kind`."""
    if kind is None:
        return True
    if kind == "exact" or isinstance(ref, str) or isinstance(got, str):
        return got == ref
    if not (math.isfinite(got) and math.isfinite(ref)):
        return got == ref
    if kind == "res":
        return abs(got - ref) <= RES_FACTOR * res * (1.0 + abs(ref))
    rtol = TIGHT_RTOL if kind == "tight" else FIT_RTOL
    return abs(got - ref) <= rtol * max(abs(ref), 1e-300)


def _number(text):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text.strip()


def read_kv(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            out[key.strip()] = _number(val.strip())
    return out


def compare_kv(got_path, ref_path, kinds, default, res):
    """Mismatch messages for a `key = value` report; extra keys are allowed."""
    got, ref = read_kv(got_path), read_kv(ref_path)
    bad = []
    for key, want in ref.items():
        kind = kinds.get(key, default)
        if key not in got:
            bad.append(f"{got_path.name}: missing {key}")
        elif not close(got[key], want, kind, res):
            bad.append(f"{got_path.name}: {key} = {got[key]!r}, reference {want!r} ({kind})")
    return bad


def compare_sweep(got_path, ref_path, res):
    def rows(path):
        with open(path, newline="") as fh:
            return [{k: _number(v) for k, v in r.items()} for r in csv.DictReader(fh)]

    got, ref = rows(got_path), rows(ref_path)
    if len(got) != len(ref):
        return [f"sweep.csv: {len(got)} rows, reference {len(ref)}"]
    bad = []
    for g, r in zip(got, ref):
        for col, kind in SWEEP_COLUMNS.items():
            if col not in g or not close(g[col], r[col], kind, res):
                bad.append(f"sweep.csv ell={r['ell']}: {col} = {g.get(col)!r}, "
                           f"reference {r[col]!r} ({kind})")
    return bad


def compare_run(got_path, ref_path, res, read_run_csv):
    """Compare a run CSV read back through tdmpc's own reader with the reference."""
    run = read_run_csv(str(got_path))
    with open(ref_path, newline="") as fh:
        ref = list(csv.DictReader(fh))
    T = len(ref) - 1
    if run.states.shape[0] != T + 1:
        return [f"{got_path.name}: {run.states.shape[0] - 1} steps, reference {T}"]
    bad = []
    for k, row in enumerate(ref):
        got = {f"x_{i + 1}": v for i, v in enumerate(run.states[k])}
        if k < T:
            got.update({f"u_applied_{i + 1}": v for i, v in enumerate(run.applied[k])})
            if run.d_norms is not None:
                got["norm_d_k"] = run.d_norms[k]
        for col, text in row.items():
            if col in ("k", "solve_time_s") or text == "":
                continue
            if col not in got or not close(float(got[col]), float(text), "res", res):
                bad.append(f"{got_path.name} k={k}: {col} = {float(got.get(col, 'nan'))!r}, "
                           f"reference {text}")
    return bad


def compare_output(name, got_dir, ref_dir, res, read_run_csv):
    got_path, ref_path = Path(got_dir) / name, Path(ref_dir) / name
    if not got_path.exists():
        return [f"{name}: not written"]
    if name == "sweep.csv":
        return compare_sweep(got_path, ref_path, res)
    if name.startswith("run_"):
        return compare_run(got_path, ref_path, res, read_run_csv)
    if name == "constants.txt":
        bad = compare_kv(got_path, ref_path, CONSTANT_KEYS, "tight", res)
        got = read_kv(got_path)
        # the reference may lack the sampled decay ratio (recorded from the
        # closed-form constants when the verb failed); its own certificate
        # then stands in for the stored value
        if not isinstance(got.get("psi_decay_worst"), float) or not isinstance(got.get("beta"), float):
            bad.append("constants.txt: psi_decay_worst or beta missing")
        elif got["psi_decay_worst"] > got["beta"] * (1.0 + 1e-9) + 1e-12:
            bad.append("constants.txt: psi_decay_worst exceeds beta")
        return bad
    return compare_kv(got_path, ref_path, PROBE_KEYS, "fit", res)




def check_verbs(workload, seed_key, out_dir, verbs, codes, read_run_csv):
    """Judge one pass.  Returns (failed, mismatches, messages).

    failed counts verbs that exited non-zero or whose outputs fall outside
    the reference; mismatches counts the verbs that disagree with the
    reference (an unexpected exit code or an output out of tolerance).  A
    failure the reference also recorded is failed but not a mismatch.
    """
    ref_dir = REFERENCE / workload / seed_key
    meta = json.loads((ref_dir / "meta.json").read_text())
    failed = mismatches = 0
    messages = []
    for verb, code in zip(verbs, codes):
        key = " ".join(verb)
        want = meta["exits"][key]
        bad = []
        if code != 0:
            failed += 1
            if code != want:
                bad.append(f"{key}: exit {code}, reference exit {want}")
        else:
            for name in meta["outputs"][key]:
                bad += compare_output(name, out_dir, ref_dir, meta["res"], read_run_csv)
            if bad:
                failed += 1
        if bad:
            mismatches += 1
            messages += bad
        elif code != 0:
            messages.append(f"{key}: exit {code}, as in the reference")
    return failed, mismatches, messages
