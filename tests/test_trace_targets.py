"""The benchmark's span targets still name functions the solver has.

``perfbench/spans.py`` traces a run by replacing module attributes listed in
its ``TARGETS``; a target whose attribute is gone is skipped silently, so a
rename in the solver would drop a per-layer metric without an error.  This
test reads that file (it is not changed or installed) and checks that the
step anchor resolves and that every span name keeps at least one target
that resolves.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _resolves(module: str, attr: str) -> bool:
    return getattr(importlib.import_module(module), attr, None) is not None


def test_step_anchor_resolves():
    assert _resolves(*spans.STEP_ANCHOR)


@pytest.mark.parametrize("name", sorted({name for _, _, name in spans.TARGETS}))
def test_every_span_name_keeps_a_target(name):
    targets = [(m, a) for m, a, n in spans.TARGETS if n == name]
    assert any(_resolves(m, a) for m, a in targets), \
        f"no target of span {name!r} resolves: {targets}"
