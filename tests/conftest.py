"""Shared test fixtures."""

import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name, when=None)`` wraps the function or class
    ``module.name`` in every matrep module that holds it, and returns the
    list, in order, of the first arguments of its calls from then on for
    which ``when`` holds (every call when ``when`` is None)."""

    def count(module, name, when=None):
        original = getattr(module, name)
        calls = []

        def counting(arg, *rest):
            if when is None or when(arg):
                calls.append(arg)
            return original(arg, *rest)

        for module_name, held in list(sys.modules.items()):
            if module_name.split(".")[0] == "matrep" and getattr(held, name, None) is original:
                monkeypatch.setattr(held, name, counting)
        return calls

    return count


@pytest.fixture
def refuse_to_build_t(monkeypatch):
    """Fail the test if it labels a hocolim complex's vertices or facets,
    the only reads that list T's Grothendieck elements as labels and build
    its order complex, until ``monkeypatch.undo()``."""
    from matrep import diagrams

    def refuse(*args):
        pytest.fail("labelled a hocolim's vertices or facets")

    for name in ("_order", "_facets"):
        monkeypatch.setattr(diagrams.HocolimComplex, name, property(refuse))
