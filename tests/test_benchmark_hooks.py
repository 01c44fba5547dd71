"""The benchmark under perfbench/ reaches the package by attribute name.

Its layer trace replaces the functions that ``perfbench/tracer.py`` lists
in ``SPANS``, and its oracle workload clears the ``enumerate_graphs`` cache
before every operation. Renaming or deleting one of those names breaks
``perfbench/run.py`` without failing any other test.
"""

import importlib.util
from pathlib import Path

import ramsat

# SPANS names cli and verify, which the package does not import itself
from ramsat import cli, verify  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_span_resolves():
    spans = load_spans()
    assert spans
    for _layer, path, _start, _done in spans:
        modname, _, attr = path.partition(".")
        owner = getattr(ramsat, modname)
        if "." in attr:
            # the tracer wraps methods found in the class's own namespace
            cls_name, method = attr.split(".")
            target = vars(getattr(owner, cls_name)).get(method)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), path


def test_enumerate_graphs_cache_clear_exists():
    assert callable(ramsat.oracle.enumerate_graphs.cache_clear)


def test_enumerate_graphs_cache_clear_empties_both_modes():
    # a cold operation must start from nothing, triangle-free classes too
    enumerate_graphs = ramsat.oracle.enumerate_graphs
    enumerate_graphs(5, triangle_free=True)
    enumerate_graphs.cache_clear()
    assert enumerate_graphs.cache_info().currsize == 0
