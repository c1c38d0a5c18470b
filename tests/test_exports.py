"""The package root exports only names that exist, and none of the
benchmark-only hooks, so a retired name cannot linger at the root."""

import importlib

import pytest

import swiptifc

MODULES = ("linalg", "channel", "metrics", "beamformers", "boundary", "scheduling", "experiments")


def test_star_import_resolves_every_root_name():
    namespace = {}
    exec("from swiptifc import *", namespace)
    assert set(swiptifc.__all__) <= set(namespace)
    assert len(set(swiptifc.__all__)) == len(swiptifc.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"swiptifc.{module}")
    assert all(hasattr(mod, name) for name in mod.__all__)


def test_benchmark_hooks_are_not_exported():
    # `perfbench/spans.py` wraps these by name; they are module functions only
    hooks = {"select_mode", "scheduled_sweep"}
    assert not hooks & set(swiptifc.__all__)
    assert not hooks & set(importlib.import_module("swiptifc.scheduling").__all__)
