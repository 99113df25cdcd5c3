"""Record the reference outputs that the benchmark compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload's verbs once per reference seed (REF_SEEDS seeds for
workloads whose outputs depend on the seed, one otherwise), with the
same configuration, preparation and invocation as a benchmark pass, and
stores the outputs under perfbench/reference/<workload>/<seed key>/,
with a meta.json of each verb's exit code and output files and the
reference solver's resolution tol_benchmark / (1 - eta).

A verb that fails while recording has no outputs to store.  For
`constants` the closed-form constants (everything but the sampled decay
ratio) are stored instead, so that a later version in which the verb
succeeds is still checked; any other failing verb aborts the recording.
"""

import argparse
import json
import shutil
import sys

import check
import run


def closed_form_constants(tdmpc, config):
    cli = tdmpc.cli
    conf = cli.resolve_config(argparse.Namespace(config=str(config), seed=None, repeats=None))
    model, qp, cfg, K = cli.build_setup(conf)
    lines = tdmpc.compute_certificates(model, qp, cfg, K).to_lines()
    return [l for l in lines if not l.startswith("psi_decay_worst ")]


def record(tdmpc, name):
    wl = run.WORKLOADS[name]
    base = check.REFERENCE / name
    shutil.rmtree(base, ignore_errors=True)
    for seed in range(run.REF_SEEDS if wl["seeded"] else 1):
        work = run.WORK / f"record-{name}-seed{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = run.write_config(work / "workload.conf", wl["conf"], seed)
        out_dir = work / "out"
        out_dir.mkdir()
        if wl["prefit"]:
            shutil.copy(run.prefit(tdmpc, work, wl["conf"], seed), out_dir)
        ref_dir = base / run.seed_key(name, seed)
        ref_dir.mkdir(parents=True)
        meta = {"exits": {}, "outputs": {}}
        for verb in wl["verbs"]:
            key = " ".join(verb)
            before = set(out_dir.iterdir())
            code, wall, _, err = run.invoke(
                tdmpc, verb + ["--config", str(config), "--out", str(out_dir)])
            print(f"{name} seed {seed} {key}: exit {code} in {wall:.1f} s {err.strip()[-200:]}")
            meta["exits"][key] = code
            if code == 0:
                outputs = sorted(p.name for p in set(out_dir.iterdir()) - before)
                for out in outputs:
                    shutil.copy(out_dir / out, ref_dir / out)
            elif verb == ["constants"]:
                outputs = ["constants.txt"]
                (ref_dir / "constants.txt").write_text(
                    "\n".join(closed_form_constants(tdmpc, config)) + "\n")
            else:
                sys.exit(f"{key} failed while recording; nothing to store")
            meta["outputs"][key] = outputs
        conf = tdmpc.cli.resolve_config(
            argparse.Namespace(config=str(config), seed=None, repeats=None))
        cfg = tdmpc.cli.build_setup(conf)[2]
        meta["res"] = cfg.tol_benchmark / (1.0 - cfg.eta)
        (ref_dir / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
        shutil.rmtree(work)


def main():
    names = sys.argv[1:] or list(run.WORKLOADS)
    tdmpc = run.import_tdmpc()
    for name in names:
        record(tdmpc, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
