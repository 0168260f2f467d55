"""Spans around the public functions of the spikedrop modules.

The tracer patches wrappers into the module namespaces from outside, so the
program's source stays untouched, and restores the originals on
``uninstall``. A wrapper replaces every module-level reference to the
function it wraps (``from .x import f`` copies included), so calls between
modules are traced too.

Aggregates (calls, total time, time covered by child spans) are exact for
every call. Individual spans (id, parent id, pass, name, start, end) are kept
in memory up to ``SPAN_LIMIT`` and written out by ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> {function name: span name}; the layers of the benchmark
TARGETS = {
    "cli": {"main": "cli.main", "cmd_train": "cli.train",
            "cmd_infer": "cli.infer", "cmd_compare": "cli.compare"},
    "data": {"load_csv": "data.load_csv",
             "train_test_split": "data.train_test_split"},
    "network": {"forward": "network.forward", "sample_masks": "network.sample_masks",
                "load_model": "network.load_model", "save_model": "network.save_model",
                "init_weights": "network.init_weights", "validate": "network.validate",
                "validate_weights": "network.validate_weights"},
    "neuron": {"lif_step_arrays": "neuron.lif_step_arrays",
               "softlif_rate": "neuron.softlif_rate",
               "softlif_rate_grad": "neuron.softlif_rate_grad"},
    "training": {"train": "training.train", "backward": "training.backward",
                 "loss_mse": "training.loss_mse", "write_history": "training.write_history"},
    "convert": {"convert": "convert.convert"},
    "snn": {"simulate": "snn.simulate", "summarize_trace": "snn.summarize_trace"},
    "mcinfer": {"predictive_distribution": "mcinfer.predictive_distribution",
                "write_samples": "mcinfer.write_samples",
                "read_samples": "mcinfer.read_samples"},
    "stats": {"ks_two_sample": "stats.ks_two_sample",
              "pvalue_uniformity": "stats.pvalue_uniformity"},
}
MODULES = tuple(TARGETS)
SPAN_LIMIT = 50_000


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed.

    ``hooks`` maps a span name to ``hook(args, kwargs, seconds)``, called
    after each call with the call's positional and keyword arguments.
    """

    def __init__(self, hooks):
        self.hooks = hooks
        self.calls = {}        # span name -> call count
        self.total = {}        # span name -> seconds inside the span
        self.child = {}        # span name -> seconds covered by direct children
        self.spans = []        # (id, parent id, pass, name, start, end)
        self.spans_dropped = 0
        self.top_level_s = 0.0  # seconds covered by spans without a traced parent
        self.pass_id = 0
        self._stack = []       # [span id, seconds covered by children]
        self._next_id = 0
        self._patched = []     # (namespace, attribute, original)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "spikedrop" or name.startswith("spikedrop."))]
        for module, functions in TARGETS.items():
            home = sys.modules.get(f"spikedrop.{module}")
            if home is None:
                continue
            for attr, span in functions.items():
                original = getattr(home, attr, None)
                if not callable(original):
                    continue  # a removed call path reports zero calls
                wrapper = self._wrap(span, original)
                for namespace in package:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)
                            self._patched.append((namespace, key, original))

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched = []

    def _wrap(self, span, fn):
        hook = self.hooks.get(span)
        calls, total, child, stack = self.calls, self.total, self.child, self._stack
        for table in (calls, total, child):
            table.setdefault(span, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                calls[span] += 1
                total[span] += seconds
                child[span] += frame[1]
                if stack:
                    stack[-1][1] += seconds
                else:
                    self.top_level_s += seconds
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((span_id, parent, self.pass_id, span, start, end))
                else:
                    self.spans_dropped += 1
                if hook is not None:
                    hook(args, kwargs, seconds)

        return wrapper

    def self_seconds(self, span):
        return self.total.get(span, 0.0) - self.child.get(span, 0.0)

    def module_self_seconds(self, module):
        return sum(self.self_seconds(span) for span in TARGETS[module].values())

    def write(self, path):
        doc = {
            "columns": ["id", "parent", "pass", "name", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "calls": self.calls,
            "total_s": self.total,
            "child_s": self.child,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
            f.write("\n")
