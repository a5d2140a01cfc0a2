"""The benchmark's span targets still name functions the solver has.

``perfbench/spans.py`` traces a run by replacing module attributes listed in
its ``TARGETS``; a target whose attribute is gone is skipped silently, so a
rename in the solver would drop a per-layer metric without an error.  This
test reads that file (it is not changed or installed) and checks that the
step anchor resolves, that every span name keeps at least one target that
resolves, and that the run path calls every ``thinspray.*`` target that
resolves, so no import is kept only for a target to resolve; the one
exemption names why its import stays.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from test_golden import CASES

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


# Targets that resolve but that no run calls, and why each is kept.
EXEMPT = {
    ("thinspray.kinetic", "cic_gather"):
        "imported only because perfbench/test_perfbench.py calls it there",
}


def test_the_golden_runs_call_every_scenarios_target(monkeypatch):
    # and every other thinspray.* target, so no module keeps an import only for a span
    calls = {}
    for module, attr, _ in spans.TARGETS:
        if module.startswith("thinspray.") and _resolves(module, attr):
            calls[module, attr] = 0
            owner = importlib.import_module(module)

            def counted(*args, _key=(module, attr), _real=getattr(owner, attr), **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)
    scenarios = importlib.import_module("thinspray.scenarios")
    for config in CASES.values():
        scenarios.run_scenario(scenarios.SimConfig(**config))
    uncalled = {key for key, count in calls.items() if not count}
    assert calls and uncalled == set(EXEMPT), \
        f"uncalled targets: {sorted(uncalled - set(EXEMPT))}; " \
        f"exempt but called: {sorted(set(EXEMPT) - uncalled)}"
