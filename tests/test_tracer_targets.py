"""The benchmark's span tracer finds every function it wraps.

``bench/spans.py`` looks its targets up by module and attribute path
when a traced run starts, so a renamed or deleted function would break
only ``bench/run.py --trace 1``.  The tracer imports nothing from
``sp4cert``, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


def test_the_tracer_has_targets():
    assert TARGETS


@pytest.mark.parametrize("module_name, path, span", TARGETS, ids=[t[1] for t in TARGETS])
def test_every_tracer_target_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
