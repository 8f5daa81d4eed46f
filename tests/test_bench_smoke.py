"""The benchmark under bench/ still runs against the package.

Each workload's first cycle runs with spans recorded, and every item's
output goes through the check the benchmark applies to it. So a change to
the package that breaks an item, its check, a traced name or a per-layer
metric the benchmark expects to move fails here.
"""

import importlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module_name,attr,span,work", tracing.TARGETS,
                         ids=[target[2] for target in tracing.TARGETS])
def test_traced_target_resolves(module_name, attr, span, work):
    owner = importlib.import_module(f"phasematch.{module_name}")
    if "." in attr:
        class_name, method = attr.split(".")
        assert callable(vars(getattr(owner, class_name))[method])
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_cycle_passes_its_checks(name):
    cases = workloads.WORKLOADS[name](1, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = [case.run() for case in cases]
    finally:
        tracer.restore()
    for case, out in zip(cases, outputs):
        case.check(out)
    _, silent = tracing.layer_metrics(tracer.spans, name, 1, len(cases), 1.0)
    assert silent == []
