"""The package surface: each module's ``__all__`` is its one list of public
names, and the package namespace is built from those lists."""

import ast
import inspect

import pytest

import awgn_feedback
from awgn_feedback import exponents, feedback, jscc, lattices, sim

MODULES = (exponents, feedback, jscc, lattices, sim)

# the package's public names; adding or removing one is an API change
PUBLIC = [
    "Binding", "ChannelParams", "ExponentRegion", "FeedbackExponentResult",
    "JsccParams", "Lattice", "SchemeConfig", "SimulationSummary",
    "TrialRecord", "__version__", "balance_looseness", "capacity",
    "critical_rate", "cubic_lattice", "e_fb", "effective_snr",
    "estimate_error_prob", "expurgation_rate", "gallager_exp",
    "high_snr_bound", "kstar_zero_rate", "make_lattice", "modulo",
    "out_of_region_exponent", "poltyrev_exponent", "quantize_nn",
    "region_assumptions_hold", "run_coupled_trial", "run_trial",
    "sample_dither", "scale_to_power", "sphere_packing_exp",
    "wilson_interval", "wz_encode", "wz_receive",
]


def test_package_exports_the_public_names_once():
    assert sorted(awgn_feedback.__all__) == PUBLIC


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_names_are_the_module_objects(module):
    for name in module.__all__:
        assert getattr(awgn_feedback, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_lists_its_public_defs(module):
    """A public top-level def or class missing from ``__all__`` fails here."""
    tree = ast.parse(inspect.getsource(module))
    defs = [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    assert sorted(module.__all__) == sorted(defs)
