"""Spans and counters around the public layer functions of ``rootcoh``.

The tracer replaces each target function by a wrapper, in its defining
module and in every ``rootcoh`` module that imported it by name, so that
calls between layers are seen no matter which name they use.  Each call
records a span ``[op_id, name_id, start, end, parent_index]``; spans stay in
memory and are written out once, at the end of the run.  A target that no
longer exists is listed as unmeasured instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

#: Public functions traced, by defining module.
TARGETS = (
    ("rootsys", "build_root_system"),
    ("exterior", "sum_keys"),
    ("exterior", "phi_sums"),
    ("exterior", "lambda_p_weights"),
    ("vanishing", "check_theorem1"),
    ("weyl", "bwb"),
    ("weyl", "weyl_dim"),
    ("nonvanishing", "e1_page"),
    ("nonvanishing", "build_certificate"),
    ("nonvanishing", "classify_lemma11"),
    ("verify", "check_appendix_tables"),
    ("verify", "check_coxeter_numbers"),
    ("verify", "check_column_statistics"),
    ("verify", "check_prop2_sufficiency"),
    ("verify", "check_corollary5"),
    ("verify", "check_pairing_bound"),
    ("verify", "check_certificates"),
    ("verify", "check_rho_top_degree"),
    ("verify", "check_bwb_oracle"),
    ("cli", "main"),
)

#: Labels whose call count is reported next to the self time.
CALL_COUNTED = (
    "rootsys.build_root_system",
    "exterior.sum_keys",
    "weyl.bwb",
    "weyl.weyl_dim",
    "cli.main",
)

#: Counters filled from arguments and results, and the target each needs.
COUNTER_SOURCES = {
    "exterior.subsets": "exterior.sum_keys",
    "exterior.support_weights": "exterior.sum_keys",
    "exterior.repeats": "exterior.sum_keys",
    "vanishing.weights_classified": "vanishing.check_theorem1",
    "weyl.singular": "weyl.bwb",
    "weyl.reflections": "weyl.bwb",
}

OP_SPAN = "op"


def _sign_label(sign) -> str:
    return "+" if sign in ("+", 1) else "-"


def _count_sum_keys(tracer, bound, result) -> None:
    rs, p = bound.arguments["rs"], bound.arguments["p"]
    sign = _sign_label(bound.arguments.get("sign", "-"))
    c = tracer.counts
    c["exterior.subsets"] += math.comb(rs.num_positive_roots, p)
    c["exterior.support_weights"] += len(result[0])
    key = (str(rs.simple_type), sign)
    if key in tracer.seen_types:
        c["exterior.repeats"] += 1
    tracer.seen_types.add(key)


def _count_theorem1(tracer, bound, report) -> None:
    tracer.counts["vanishing.weights_classified"] += (
        report.num_dominant + report.num_singular + report.num_violations
    )


def _count_bwb(tracer, bound, outcome) -> None:
    if outcome.is_singular:
        tracer.counts["weyl.singular"] += 1
    else:
        tracer.counts["weyl.reflections"] += outcome.degree


#: label -> (hook, whether the hook reads the bound arguments)
_HOOKS = {
    "exterior.sum_keys": (_count_sum_keys, True),
    "vanishing.check_theorem1": (_count_theorem1, False),
    "weyl.bwb": (_count_bwb, False),
}

_HOOK_ERRORS = (AttributeError, KeyError, IndexError, TypeError, ValueError)


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_types: set[tuple[str, str]] = set()
        self.unmeasured: set[str] = set()
        self.broken_hooks: set[str] = set()
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [self.op_id, name_id, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` inside the root span of one op."""
        self.op_id = op_id
        rec = self._enter(self._name_id(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self._exit(rec)

    def _wrap(self, label: str, fn):
        name_id = self._name_id(label)
        hook, needs_args = _HOOKS.get(label, (None, False))
        sig = inspect.signature(fn) if needs_args else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if hook is not None and label not in tracer.broken_hooks:
                try:
                    bound = sig.bind(*args, **kwargs) if sig else None
                    if bound is not None:
                        bound.apply_defaults()
                    hook(tracer, bound, result)
                except _HOOK_ERRORS:
                    tracer.broken_hooks.add(label)
            return result

        return wrapper

    def install(self, package: str = "rootcoh", targets=TARGETS) -> None:
        """Wrap every target wherever a module of ``package`` binds it."""
        for module_name, func_name in targets:
            label = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{package}.{module_name}")
                original = getattr(module, func_name)
            except (ImportError, AttributeError):
                self.unmeasured.add(label)
                continue
            wrapper = self._wrap(label, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Self time and calls per span name, plus counters and gaps."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, rec in enumerate(self.spans):
            name = self.names[rec[1]]
            self_s[name] += (rec[3] - rec[2]) - child[i]
            calls[name] += 1
        unmeasured = set(self.unmeasured)
        for counter, source in COUNTER_SOURCES.items():
            if source in self.unmeasured or source in self.broken_hooks:
                unmeasured.add(counter)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "unmeasured": sorted(unmeasured),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["op_id", "name_id", "start", "end", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )
