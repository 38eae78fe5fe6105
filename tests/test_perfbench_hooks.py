"""The benchmark's traced mode wraps program functions by name; a rename in
the program must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fomc
import fomc.cli  # noqa: F401  every module the tracer wraps is loaded
from fomc import shops
from fomc.structures import GRAPH_SIGNATURE, Structure

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the tracer needs the standard library only
    return module


def test_every_wrapped_function_resolves(tracer):
    assert tracer.WRAPPED
    for module, attr in tracer.WRAPPED:
        owner = importlib.import_module(f"fomc.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method in the class's own namespace
            assert callable(vars(getattr(owner, cls_name)).get(meth)), (module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)


def test_mask_table_cache_reports_its_counters():
    # the traced runner reads the hit rate of this cache
    info = shops._mask_tables.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_install_records_spans_and_uninstall_restores(tracer):
    original = shops.preserves
    t = tracer.Tracer()
    t.install()
    try:
        assert shops.preserves is not original
        structure = Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 1)}})
        assert fomc.preserves(shops.identity_shop(2), structure)
        assert fomc.exists_shop(structure, "A-shop", 0) is None
    finally:
        t.uninstall()
    assert shops.preserves is original
    names = {t.names[i] for i in t.span_name}
    assert {"shops.preserves", "shops.exists_shop.A-shop"} <= names
