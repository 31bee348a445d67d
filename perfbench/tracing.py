"""Spans and counts for the traced run, recorded from outside the program.

``Tracer.install`` swaps the public functions of the bnnlv layers for thin
wrappers, in every namespace their callers look them up in, and
``Tracer.uninstall`` puts the originals back. Each wrapped call records a
span (name, start, end, parent span, workload id, command index, error).
Spans stay in memory; ``summarize`` turns them into the per-layer metrics
and ``Tracer.write`` saves them when the run ends.
"""
from __future__ import annotations

import bisect
import contextlib
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name). A function imported by value into another
# module is patched there too, under the same span name. `bnnlv.train` is
# looked up in sys.modules because the package re-exports the function
# `train` under that attribute name.
PATCHES = (
    ("bnnlv.diffcore", "backward", "diffcore.backward"),
    ("bnnlv.diffcore", "mlp_forward", "diffcore.mlp_forward"),
    ("bnnlv.vi", "elbo_graph", "vi.elbo_graph"),
    ("bnnlv.vi", "random_init", "vi.random_init"),
    ("bnnlv.ncai", "objective_graph", "ncai.objective_graph"),
    ("bnnlv.ncai", "hz_statistic", "ncai.hz_statistic"),
    ("bnnlv.ncai", "offdiag_penalty", "ncai.offdiag_penalty"),
    ("bnnlv.ncai", "pearson_penalty", "ncai.pearson_penalty"),
    ("bnnlv.ncai", "warm_start", "ncai.warm_start"),
    ("bnnlv.ncai", "fit_point_mlp", "ncai.fit_point_mlp"),
    ("bnnlv.train", "train", "train.train"),
    ("bnnlv.train", "adam_step", "train.adam_step"),
    ("bnnlv.train", "eb_update_sw", "train.eb_update"),
    ("bnnlv.train", "eb_update_sz", "train.eb_update"),
    ("bnnlv.train", "restart_select", "train.restart_select"),
    ("bnnlv.train", "train_restarts", "train.train_restarts"),
    ("bnnlv.cli", "train_restarts", "train.train_restarts"),
    ("bnnlv.metrics", "compute_report", "metrics.compute_report"),
    ("bnnlv.cli", "compute_report", "metrics.compute_report"),
    ("bnnlv.metrics", "avg_marginal_ll", "metrics.avg_marginal_ll"),
    ("bnnlv.cli", "avg_marginal_ll", "metrics.avg_marginal_ll"),
    ("bnnlv.metrics", "predictive_rmse", "metrics.predictive_rmse"),
    ("bnnlv.metrics", "picp_mpiw", "metrics.picp_mpiw"),
    ("bnnlv.metrics", "recon_mse", "metrics.recon_mse"),
    ("bnnlv.metrics", "kraskov_mi", "metrics.kraskov_mi"),
    ("bnnlv.metrics", "js_divergence_mc", "metrics.js_divergence_mc"),
    ("bnnlv.metrics", "hz_statistic", "metrics.hz_statistic"),
    ("bnnlv.metrics", "pearson_penalty", "metrics.pearson_penalty"),
    ("bnnlv.model", "predictive_sample_matrix", "model.predictive_sample_matrix"),
    ("bnnlv.metrics", "predictive_sample_matrix", "model.predictive_sample_matrix"),
    ("bnnlv.cli", "predictive_sample_matrix", "model.predictive_sample_matrix"),
    ("bnnlv.data", "gen_synthetic", "data.gen_synthetic"),
    ("bnnlv.cli", "gen_synthetic", "data.gen_synthetic"),
    ("bnnlv.data", "load_csv", "data.load_csv"),
    ("bnnlv.cli", "load_csv", "data.load_csv"),
)

TAPE_WALK = "perfbench.tape_walk"


def _module(name):
    return sys.modules[name] if name in sys.modules else importlib.import_module(name)


def tape_size(root):
    """(node count, bytes of node values) of the tape reachable from ``root``."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.value.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


class Tracer:
    """Records spans and counts for one workload run."""

    def __init__(self, workload_id):
        self.workload_id = workload_id
        # span tuple: (id, name, start, end, parent id, command, error)
        self.spans = []
        self.tape = []  # (command, node count, bytes) per VI-epoch backward
        self.draws = Counter()  # command -> MeanFieldPosterior.draw_function calls
        self.command = None  # index of the command being traced; None in set-up
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.command, error))

    def _wrap(self, fn, name):
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_backward(self, backward):
        tracer = self
        timed = self._wrap(backward, "diffcore.backward")

        def wrapper(loss):
            names = [n for _, n in tracer._stack()]
            if "train.train" in names and "ncai.warm_start" not in names:
                with tracer.span(TAPE_WALK):
                    nodes, nbytes = tape_size(loss)
                tracer.tape.append((tracer.command, nodes, nbytes))
            return timed(loss)

        wrapper.__wrapped__ = backward
        return wrapper

    def _wrap_draw(self, draw):
        tracer = self

        def wrapper(q, rng):
            tracer.draws[tracer.command] += 1
            return draw(q, rng)

        wrapper.__wrapped__ = draw
        return wrapper

    def install(self):
        """Patch every entry of PATCHES; ``uninstall`` restores the originals."""
        if self._saved:
            return
        wrappers = {}
        for mod_name, attr, span_name in PATCHES:
            mod = _module(mod_name)
            orig = getattr(mod, attr)
            key = (id(orig), span_name)
            if key not in wrappers:
                if span_name == "diffcore.backward":
                    wrappers[key] = self._wrap_backward(orig)
                else:
                    wrappers[key] = self._wrap(orig, span_name)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, wrappers[key])
        cls = _module("bnnlv.vi").MeanFieldPosterior
        self._saved.append((cls, "draw_function", cls.draw_function))
        cls.draw_function = self._wrap_draw(cls.draw_function)

    def uninstall(self):
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved = []

    def write(self, path):
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "start", "end", "parent", "command", "error")
        with open(path, "w") as fh:
            for s in self.spans:
                rec = dict(zip(keys, s))
                rec["workload"] = self.workload_id
                fh.write(json.dumps(rec) + "\n")


class SpanTree:
    """Parent links, self times and per-epoch groupings of recorded spans."""

    def __init__(self, spans):
        self.spans = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s[1]].append(s)
            if s[4] is not None:
                self.children[s[4]].append(s)
        # children of a span run on its thread one after another, so they
        # never overlap and their lengths add up
        self.self_time = {
            sid: (s[3] - s[2]) - sum(c[3] - c[2] for c in self.children.get(sid, ()))
            for sid, s in self.spans.items()
        }

    def named(self, name, command=None):
        return [s for s in self.by_name.get(name, ()) if command is None or s[5] == command]

    def top_level(self):
        return [s for s in self.spans.values() if s[4] is None]

    def descendants(self, sid, skip=()):
        out, stack = [], list(self.children.get(sid, ()))
        while stack:
            s = stack.pop()
            if s[1] in skip:
                continue
            out.append(s)
            stack.extend(self.children.get(s[0], ()))
        return out

    def epochs(self):
        """Per-VI-epoch records across every ``train.train`` span.

        Epoch k runs from the start of its ``ncai.objective_graph`` call to the
        start of the next one (the last ends with the train span), so it holds
        the objective, backward, Adam step and the next epoch's EB refresh.
        Each record maps span name to (total duration, total self time) of the
        spans that start in the epoch, plus "_wall" (epoch length minus tape
        walks) and "_command".
        """
        records = []
        for tr in self.named("train.train"):
            desc = self.descendants(tr[0], skip=("ncai.warm_start",))
            starts = sorted(s[2] for s in desc
                            if s[1] == "ncai.objective_graph" and s[4] == tr[0])
            if not starts:
                continue
            bounds = starts + [tr[3]]
            recs = [defaultdict(lambda: [0.0, 0.0]) for _ in starts]
            for s in desc:
                k = bisect.bisect_right(starts, s[2]) - 1
                if k < 0:
                    continue
                acc = recs[k][s[1]]
                acc[0] += s[3] - s[2]
                acc[1] += self.self_time[s[0]]
            for k, rec in enumerate(recs):
                walk = rec[TAPE_WALK][0] if TAPE_WALK in rec else 0.0
                rec["_wall"] = [bounds[k + 1] - bounds[k] - walk, 0.0]
                rec["_command"] = tr[5]
                records.append(rec)
        return records


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(tracer, commands, n_train):
    """Per-layer metrics of the traced ``commands`` (indices).

    Returns ({metric: (value, unit)}, {top-level span name: median part no
    child covers, s}, {count metric: [value per command]}). Times per epoch
    are medians over every VI epoch of those commands, times per command are
    medians over the commands, and set-up times are medians over the traced
    set-ups. A count is the median_low over commands, so it is always one of
    the counts measured.
    """
    tree = SpanTree(tracer.spans)
    epochs = tree.epochs()

    def per_epoch(name, field=0):
        return 1e3 * _median([rec[name][field] if name in rec else 0.0 for rec in epochs])

    def per_command(name, field=0):
        return _median([sum(s[3] - s[2] if field == 0 else tree.self_time[s[0]]
                            for s in tree.named(name, c)) for c in commands])

    def tape(c, idx):
        vals = [t[idx] for t in tracer.tape if t[0] == c]
        return statistics.median_low(vals) if vals else 0

    counts = {
        "diffcore.tape_nodes": [tape(c, 1) for c in commands],
        "diffcore.tape_bytes": [tape(c, 2) for c in commands],
        "diffcore.mlp_forward.calls": [len(tree.named("diffcore.mlp_forward", c)) for c in commands],
        "vi.elbo_graph.calls": [len(tree.named("vi.elbo_graph", c)) for c in commands],
        "train.epochs": [sum(rec["_command"] == c for rec in epochs) for c in commands],
        "train.divergences": [sum(s[6] == "DivergenceError" for s in tree.named("train.train", c))
                              for c in commands],
        "metrics.posterior_draws": [tracer.draws[c] for c in commands],
    }
    count_units = {"diffcore.tape_bytes": "bytes"}
    metrics = {name: (statistics.median_low(vals) if vals else 0, count_units.get(name, "count"))
               for name, vals in counts.items()}
    setup_gen = [s[3] - s[2] for s in tree.named("data.gen_synthetic") if s[5] is None]
    metrics.update({
        "diffcore.backward.self_ms": (per_epoch("diffcore.backward", 1), "ms"),
        "diffcore.mlp_forward.self_ms": (1e3 * per_command("diffcore.mlp_forward", 1), "ms"),
        "vi.elbo_graph.self_ms": (per_epoch("vi.elbo_graph", 1), "ms"),
        "ncai.objective_graph.self_ms": (per_epoch("ncai.objective_graph", 1), "ms"),
        "ncai.hz_statistic.ms": (per_epoch("ncai.hz_statistic"), "ms"),
        "ncai.offdiag_penalty.ms": (per_epoch("ncai.offdiag_penalty"), "ms"),
        "ncai.pearson_penalty.ms": (per_epoch("ncai.pearson_penalty"), "ms"),
        "ncai.warm_start.s": (per_command("ncai.warm_start"), "s"),
        "train.epoch_ms": (per_epoch("_wall"), "ms"),
        "train.adam_step.ms": (per_epoch("train.adam_step"), "ms"),
        "train.eb_update.ms": (per_epoch("train.eb_update"), "ms"),
        "train.restart_select.s": (per_command("train.restart_select"), "s"),
        "metrics.compute_report.s": (per_command("metrics.compute_report"), "s"),
        "metrics.avg_marginal_ll.s": (per_command("metrics.avg_marginal_ll"), "s"),
        "metrics.predictive_rmse.s": (per_command("metrics.predictive_rmse"), "s"),
        "metrics.picp_mpiw.s": (per_command("metrics.picp_mpiw"), "s"),
        "metrics.kraskov_mi.s": (per_command("metrics.kraskov_mi"), "s"),
        "metrics.hz_statistic.s": (per_command("metrics.hz_statistic"), "s"),
        "metrics.js_divergence_mc.s": (per_command("metrics.js_divergence_mc"), "s"),
        # computed, not measured: one float64 N x N pairwise matrix at this N
        "metrics.dense_pair_bytes": (8 * n_train * n_train, "bytes_computed"),
        "model.predictive_sample_matrix.s": (per_command("model.predictive_sample_matrix"), "s"),
        "data.gen_synthetic.s": (_median(setup_gen), "s"),
        "cli.main.self_s": (per_command("cli.main", 1), "s"),
    })
    top = defaultdict(list)
    for s in tree.top_level():
        top[s[1]].append(tree.self_time[s[0]])
    uncovered = {name: _median(vals) for name, vals in sorted(top.items())}
    return metrics, uncovered, counts
