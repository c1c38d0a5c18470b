"""The package root exports only names that exist, and none of the
benchmark-only hooks, so a retired name cannot linger at the root; the
defaulted parameters of the public functions are pinned, so a new setting
cannot slip in unseen."""

import importlib
import inspect

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


def _defaulted_parameters():
    """(module, function, parameter) of every defaulted parameter of a
    function in a module's `__all__`."""
    found = set()
    for module in MODULES:
        mod = importlib.import_module(f"swiptifc.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                for param in inspect.signature(obj).parameters.values():
                    if param.default is not inspect.Parameter.empty:
                        found.add((module, name, param.name))
    return found


def test_defaulted_public_parameters_are_pinned():
    # a new setting on a public function needs an edit here
    assert _defaulted_parameters() == {
        ("linalg", "as_matrix", "name"),
        ("channel", "channel_document", "include_seed"),
        ("beamformers", "water_level", "weights"),
        ("beamformers", "meb_rank2", "split"),
        ("boundary", "re_sweep", "n_points"),
        ("boundary", "re_sweep", "e_grid"),
        ("scheduling", "scheduled_run", "n_points"),
        ("experiments", "emit_plot_data", "label"),
        ("experiments", "emit_plot_data", "seed"),
        ("experiments", "run_experiment", "workers"),
    }


def test_retired_settings_and_names_stay_retired():
    sig = inspect.signature
    assert list(sig(swiptifc.iterative_waterfilling).parameters) == ["cs", "p"]
    assert list(sig(swiptifc.re_sweep).parameters) == ["cs", "strategy", "p", "n_points", "e_grid"]
    assert list(sig(swiptifc.re_boundary_point).parameters) == ["cs", "strategy", "e_bar", "p"]
    assert list(sig(swiptifc.emax).parameters) == ["cs", "strategy", "p"]
    linalg = importlib.import_module("swiptifc.linalg")
    assert not {"Tolerances", "TOL"} & (set(swiptifc.__all__) | set(linalg.__all__))
