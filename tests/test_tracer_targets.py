"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` looks its targets up by module and name, and reads
the arguments of ``sum_keys`` by name; a target it cannot find is reported
as unmeasured rather than raising.  So renaming or deleting a traced
function, or one of those parameters, would silently empty its counters.
The tracer is loaded from its file as it is, without changes.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from rootcoh import exterior, root_system

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module_name,func_name", tracer.TARGETS, ids=[".".join(t) for t in tracer.TARGETS]
)
def test_every_traced_target_exists(module_name, func_name):
    module = importlib.import_module(f"rootcoh.{module_name}")
    assert callable(getattr(module, func_name, None))


def test_sum_keys_binds_rs_and_p(monkeypatch):
    # the counter hook binds sum_keys' arguments and reads "rs" and "p";
    # a hook that fails marks its counters unmeasured
    monkeypatch.setattr(exterior, "_layer_cache", {})
    t = tracer.Tracer()
    t.install()
    try:
        rows, _ = t.run_op(0, exterior.phi_sums, root_system("G2"), 4)
    finally:
        t.uninstall()
    summary = t.summary()
    assert summary["unmeasured"] == []
    assert summary["calls"]["exterior.sum_keys"] == 1
    assert summary["counts"]["exterior.subsets"] == math.comb(6, 4)
    assert summary["counts"]["exterior.support_weights"] == len(rows)
