"""The layer tracer in bench/tracer.py patches torlicz from outside by name;
these tests keep the names and hooks it relies on in place."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import torlicz.cli  # noqa: F401  (the tracer's spans include cli functions)
import torlicz.young as tz_young

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_on_torlicz(tracer):
    for mod, fn_name in tracer.SPANS:
        module = importlib.import_module(f"torlicz.{mod}")
        assert callable(getattr(module, fn_name, None)), f"torlicz.{mod}.{fn_name}"


def test_counters_install_and_uninstall_around_a_young_pair(tracer):
    young_call = tz_young.YoungFunction.__call__
    t = tracer.Tracer()
    t.install_counters()
    try:
        pair = tz_young.parse_pair("xlog")
        pair.phi(1.0)
        pair.psi(1.0)
    finally:
        t.uninstall()
    assert t.counts["young.phi_evals"] == 1
    assert t.counts["young.psi_evals"] == 1
    assert tz_young.YoungFunction.__call__ is young_call
