"""The package's public names are its modules' ``__all__`` lists, each bound
to the object its module exports, and no name exported before the package
re-exported ``__all__`` is gone or rebound."""

import importlib
import types

import pytest

import hbvkit as hk

MODULES = ("equilibria", "integrate", "model", "process", "scenarios", "stability")

# the names the package exported from each module when it listed them by hand
LISTED = {
    "equilibria": ("EquilibriumReport", "UnsupportedForcingError", "disease_free", "endemic", "residual_norm"),
    "integrate": (
        "AdaptiveStep", "FixedStep", "MonitorEvent", "StepControl", "Trajectory", "integrate", "richardson_order",
    ),
    "model": (
        "BoundsReport", "ConstantForcing", "Forcing", "OutOfDomainError", "Parameters", "PiecewiseLinearForcing",
        "SinusoidForcing", "analytic_bounds", "jacobian", "vector_field",
    ),
    "process": (
        "AbsorbingSetReport", "ProcessTerminatedError", "PullbackEstimate", "absorbing_check", "process_solve",
        "pullback_estimate", "semigroup_check",
    ),
    "scenarios": (
        "SCENARIOS", "ConfigError", "RunReport", "Scenario", "SweepResult", "UnknownScenarioError", "load_box",
        "load_config", "run_scenario", "save_config", "sweep",
    ),
    "stability": (
        "ConditionMargins", "ContractionFit", "LyapunovTrace", "R0Variants", "StabilityReport",
        "condition_margins", "contraction_fit", "eigenvalues_3x3", "lyapunov_fit", "r0_all",
        "routh_hurwitz_stable", "stability_report",
    ),
}


def _module(name):
    return importlib.import_module(f"hbvkit.{name}")


@pytest.mark.parametrize("module", MODULES)
def test_every_all_name_is_the_modules_object_in_the_package(module):
    mod = _module(module)
    assert [name for name in mod.__all__ if getattr(hk, name) is not getattr(mod, name)] == []


def test_the_public_names_are_the_union_of_the_all_lists():
    exported = {name for module in MODULES for name in _module(module).__all__}
    public = {
        name for name, value in vars(hk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == exported


@pytest.mark.parametrize("module", MODULES)
def test_the_hand_listed_names_resolve_to_the_same_objects(module):
    assert sum(map(len, LISTED.values())) == 52
    mod = _module(module)
    assert [name for name in LISTED[module] if getattr(hk, name) is not getattr(mod, name)] == []


def test_the_package_binds_integrate_to_the_function():
    assert hk.integrate is _module("integrate").integrate
    assert isinstance(hk.integrate, types.FunctionType)
    assert hk.TERMINAL_EVENT_KINDS is _module("integrate").TERMINAL_EVENT_KINDS
