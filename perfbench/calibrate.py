"""Derive the test_avg_ll references in reference.json.

    python3 perfbench/calibrate.py

For every workload and each calibration seed (SEEDS) this writes the inputs
and runs the command once per input set with the set's own run seed: that
value is the set's reference. It runs each set again with STREAM_SEEDS other
run seeds, which changes only the random stream (initialisation and Monte
Carlo draws), never the data or the model. The stream tolerance is MARGIN
times the largest distance seen between such a value and its set's
reference, so a deliberate change of random stream stays inside it.

Seeds outside SEEDS have no per-set reference; they get the pooled band,
the median of all reference values plus or minus POOLED_MARGIN times their
full range, which also covers the data's seed-to-seed spread. The script
rewrites reference.json.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys

import numpy as np

from run import HERE, ROOT, import_bnnlv, run_command
from workloads import WORKLOADS, check_outputs, command_argvs, write_inputs

SEEDS = range(4)
STREAM_SEEDS = 2
MARGIN = 2.0
POOLED_MARGIN = 1.5


def with_run_seed(argv, run_seed):
    out = list(argv)
    out[out.index("--seed") + 1] = str(run_seed)
    return out


def test_ll(cli, w, argv, work, label):
    _, rc, err = run_command(cli, argv, work / "out")
    ll, problems = check_outputs(w, str(work / "out"), None)
    if rc != 0 or problems:
        sys.exit(f"{label}: exit {rc} {err} {problems}")
    return ll


def calibrate(cli, w, work):
    refs, deviations = {}, []
    for seed in SEEDS:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            write_inputs(w, seed, str(work / "in"))
        refs[str(seed)] = []
        for j, argv in enumerate(command_argvs(w, seed, str(work / "in"))):
            label = f"{w.name} seed {seed} set {j}"
            ref = test_ll(cli, w, argv, work, label)
            refs[str(seed)].append(ref)
            streams = np.random.SeedSequence([seed, j]).generate_state(STREAM_SEEDS)
            alts = [test_ll(cli, w, with_run_seed(argv, int(s)), work, label) for s in streams]
            deviations += [abs(a - ref) for a in alts]
            print(f"{label}: reference {ref:.4f}, other streams "
                  f"{', '.join(f'{a:.4f}' for a in alts)}", file=sys.stderr)
    values = [v for vals in refs.values() for v in vals]
    med, spread = statistics.median(values), max(values) - min(values)
    return {
        "per_input_set": refs,
        "stream_max_deviation": max(deviations),
        "stream_tolerance": MARGIN * max(deviations),
        "pooled_median": med,
        "pooled_range": spread,
        "pooled_low": med - POOLED_MARGIN * spread,
        "pooled_high": med + POOLED_MARGIN * spread,
    }


def main():
    import_bnnlv(ROOT)
    from bnnlv import cli

    work = ROOT / ".perfbench" / "calibrate"
    entries = {name: calibrate(cli, WORKLOADS[name], work) for name in sorted(WORKLOADS)}
    shutil.rmtree(work, ignore_errors=True)
    reference = {
        "how": (f"python3 perfbench/calibrate.py: seeds {SEEDS.start}-{SEEDS.stop - 1}, "
                f"{STREAM_SEEDS} other run seeds per input set, stream tolerance "
                f"{MARGIN:g} x the largest stream deviation, pooled band median +- "
                f"{POOLED_MARGIN:g} x range"),
        "test_avg_ll": entries,
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
