"""bnnlv benchmark: one workload, closed loop, through the `bnnlv` CLI entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ncai_depeweg --seed 0 --seconds 25 --trace 0

The run writes its inputs from the seed in a fresh interpreter, then calls
``bnnlv.cli.main`` one command after another for about
``--seconds`` seconds and checks every command's outputs; more timed
set-ups run between commands. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` untraced and traced commands alternate and the metrics
are the per-layer ones (see README.md). Work files, results and spans go to
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
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

# One BLAS thread, so a run loads one core whatever BLAS would pick by
# default; the provenance records the count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    INPUT_SETS, WORKLOADS, check_outputs, command_argvs, derive_seeds, tiny, write_inputs,
)

SETUP_REPS = 7
# ROADMAP baseline rows the traced run reports against: (row, ROADMAP value,
# unit, per-layer metric, workload that measures it, how the set-up differs).
ROADMAP_ROWS = (
    ("NCAI epoch, random-init means", 51.0, "ms", "train.epoch_ms", "ncai_depeweg",
     "here the epochs follow a warm start"),
    ("BBB epoch, n_mc=16", 25.0, "ms", "train.epoch_ms", "bbb_heavy_tail_mc16",
     "here on heavy_tail N=300, the ROADMAP used depeweg N=750"),
    ("Warm start", 2.1, "s", "ncai.warm_start.s", "ncai_depeweg",
     "here {w.warm_epochs} warm epochs, the ROADMAP desk run used 2000"),
    ("compute_report, S=2000", 1.0, "s", "metrics.compute_report.s", "ncai_depeweg",
     "same N=750"),
    ("compute_report, S=2000", 1.0, "s", "metrics.compute_report.s", "evaluate_depeweg_n3000",
     "here N=3000, the ROADMAP used N=750"),
)
PROBE_NCAI_EPOCH_MS = 33.0  # NCAI epoch from an earlier ad-hoc probe at these sizes


def import_bnnlv(root):
    """Import bnnlv from ``root``/src; refuse any other copy."""
    src = root / "src"
    if not (src / "bnnlv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bnnlv sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import bnnlv

    if Path(bnnlv.__file__).resolve().parent != (src / "bnnlv").resolve():
        raise SystemExit(f"perfbench: imported bnnlv from {bnnlv.__file__}, not {src}")


# ---------------------------------------------------------------------------
# provenance

def _blas():
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    threads = int(getattr(lib, fn)())
                    break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(w, seed, root):
    import numpy
    import scipy

    import bnnlv

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bnnlv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "input_set_seeds": [{"data": d, "run": r, "model": m} for d, r, m in derive_seeds(seed)],
        "sizes": w.sizes_record(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bnnlv": bnnlv.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up and commands

def timed_setup(args, dest):
    """Write the inputs into ``dest`` in a fresh interpreter; returns the seconds.

    The time covers interpreter start, imports and the writing of the
    dataset, config and model.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-into", str(dest)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return seconds


def spare_setup(args, work):
    """One more timed set-up into a scratch directory, which it then removes."""
    spare = work / "spare-setup"
    seconds = timed_setup(args, spare)
    shutil.rmtree(spare)
    return seconds


def traced_setups(w, seed, work, tracer, reps):
    """In-process set-ups with tracing on; returns the last input directory."""
    for i in range(reps):
        dest = work / f"setup{i}"
        with tracer.span("perfbench.setup"), contextlib.redirect_stdout(io.StringIO()):
            write_inputs(w, seed, str(dest))
    return dest


def run_command(cli, argv, out_dir, span=contextlib.nullcontext):
    """One CLI call; returns (seconds, exit code, captured stderr).

    ``span()`` is entered around exactly the timed call, after the previous
    outputs are removed and garbage is collected.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with span(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out", str(out_dir)])
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, err.getvalue()


def highest_percentile(values):
    """(p, value) for the highest of p50/p90/p99/p99.9 with >= 10 samples above it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            s = sorted(values)
            best = (p, s[min(len(s) - 1, int(len(s) * p / 100.0))])
    return best


def load_bands(name, seed):
    """test_avg_ll band (low, high) for each input set of ``seed``.

    A calibrated seed has a reference value per input set and a band of the
    workload's random-stream tolerance around it; any other seed gets the
    workload's pooled band (see README.md).
    """
    with open(HERE / "reference.json") as fh:
        entry = json.load(fh)["test_avg_ll"][name]
    refs = entry["per_input_set"].get(str(seed))
    if refs is None:
        return [(entry["pooled_low"], entry["pooled_high"])] * INPUT_SETS
    tol = entry["stream_tolerance"]
    return [(ref - tol, ref + tol) for ref in refs]


def run_workload(args):
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    import_bnnlv(ROOT)
    from bnnlv import cli

    run_id = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)

    reps = 1 if args.tiny else SETUP_REPS
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.install()
        dest = traced_setups(w, args.seed, work, tracer, reps)
        tracer.uninstall()
        setup_times = []
    else:
        dest = work / "inputs"
        setup_times = [timed_setup(args, dest)]
    argvs = command_argvs(w, args.seed, str(dest))

    bands = [None] * INPUT_SETS if args.tiny else load_bands(w.name, args.seed)
    out_dir = work / "out"
    durations, traced, untraced, failures = [], [], [], []
    lls = {}  # input set -> test avg_marginal_ll of its first command
    # untraced: every input set at least once; traced: two untraced/traced pairs
    minimum = 4 if args.trace else len(argvs)
    start = time.perf_counter()
    spare_s = 0.0  # time spent in set-ups between commands, not in the loop's budget
    i = 0
    while True:
        # a traced command reuses the input set of the untraced one before it
        trace_this = bool(args.trace) and i % 2 == 1
        j = (i // 2 if args.trace else i) % len(argvs)
        if trace_this:
            tracer.command = i
            tracer.install()
            dt, rc, err = run_command(cli, argvs[j], out_dir,
                                      functools.partial(tracer.span, "cli.main"))
            tracer.uninstall()
            tracer.command = None
        else:
            dt, rc, err = run_command(cli, argvs[j], out_dir)
        problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()[-500:]}"]
        if rc == 0:
            ll, found = check_outputs(w, str(out_dir), bands[j])
            problems += found
            first = lls.setdefault(j, ll)
            if ll is not None and first is not None and abs(ll - first) > 1e-9 * abs(first):
                problems.append(f"test avg_marginal_ll {ll} differs from {first}, "
                                f"the first result of input set {j}")
        if problems:
            failures.append({"command": i, "input_set": j, "problems": problems})
        durations.append(dt)
        (traced if trace_this else untraced).append(dt)
        i += 1
        if not args.trace and len(setup_times) < reps:
            # the other set-ups run between commands, spread over the run, so
            # that one short burst of host load cannot slow all of them
            t0 = time.perf_counter()
            setup_times.append(spare_setup(args, work))
            spare_s += time.perf_counter() - t0
        elapsed = time.perf_counter() - start - spare_s
        if i >= minimum and elapsed + statistics.median(durations) > args.seconds:
            break
    while not args.trace and len(setup_times) < reps:
        setup_times.append(spare_setup(args, work))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    prov = provenance(w, args.seed, ROOT)
    attempted, failed = i, len(failures)
    report = {
        "run": run_id,
        "provenance": prov,
        "command_argvs": argvs,
        "durations_s": durations,
        "failures": failures,
        "fail_frac": failed / attempted,
    }
    lines = [f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
             f"commands {attempted}  failed {failed}"]

    if args.trace:
        from tracing import summarize

        traced_cmds = [c for c in range(attempted) if c % 2 == 1]
        layers, uncovered, counts = summarize(tracer, traced_cmds, w.n_train)
        layers["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        spans_path = results / f"{run_id}.spans.jsonl"
        tracer.write(spans_path)
        report.update(per_layer=metrics, uncovered_s=uncovered, per_command_counts=counts,
                      spans=str(spans_path.relative_to(ROOT)))
        for name, m in metrics.items():
            lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
        for name, v in uncovered.items():
            lines.append(f"  uncovered part of top-level span {name} = {v:.6g} s")
        for name, vals in counts.items():
            lines.append(f"  per-command {name}: {vals}")
        lines += roadmap_rows(w, metrics)
    else:
        run_s = statistics.median(durations)
        pct = highest_percentile(durations)
        pct_text = (f"p{pct[0]:g} = {pct[1]:.4f} s" if pct else
                    "no percentile has 10 samples beyond it")
        setup_s = statistics.median(setup_times)
        set_lls = [v for v in lls.values() if v is not None]
        test_ll = statistics.median(set_lls) if set_lls else float("nan")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "test_avg_ll": {"value": test_ll, "unit": "nats/pt"},
        }
        report.update(setup_times_s=setup_times, end_to_end=metrics, run_s_percentile=pct,
                      test_avg_ll_per_input_set=lls)
        lines += [
            f"  setup_s = {setup_s:.4f} s (median of {len(setup_times)} set-ups)",
            f"  run_s = {run_s:.4f} s (median of {len(durations)} commands; {pct_text})",
            f"  peak_rss_mb = {peak_rss_mb:.1f} MB",
            f"  test_avg_ll = {test_ll:.6f} nats/pt (median over {len(set_lls)} input sets)",
            f"  fail_frac = {failed / attempted:g} ratio ({failed} of {attempted} commands)",
        ]

    with open(results / f"{run_id}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"failed command {f['command']}: {'; '.join(f['problems'])}", file=sys.stderr)
    print("\n".join(lines))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def roadmap_rows(w, metrics):
    out = []
    for row, roadmap, unit, metric, workload, note in ROADMAP_ROWS:
        if workload != w.name:
            continue
        got = metrics[metric]["value"]
        out.append(f"  ROADMAP baseline row '{row}': ROADMAP {roadmap:g} {unit}, measured "
                   f"{got:.4g} {unit} ({metric}, traced; {note.format(w=w)}), "
                   f"difference {got - roadmap:+.4g} {unit}")
        if metric == "train.epoch_ms" and w.method == "NCAI":
            out.append(f"    an earlier ad-hoc probe measured {PROBE_NCAI_EPOCH_MS:g} ms; "
                       f"difference from it {got - PROBE_NCAI_EPOCH_MS:+.4g} ms")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-into", dest="setup_into", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_into:
        import_bnnlv(ROOT)
        w = tiny(WORKLOADS[args.workload]) if args.tiny else WORKLOADS[args.workload]
        write_inputs(w, args.seed, args.setup_into)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
