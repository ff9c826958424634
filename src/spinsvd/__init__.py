"""Heisenberg-ring solvers and SVD analysis of spin correlation matrices.

Each public name is loaded from its submodule on first use (PEP 562), so
`import spinsvd` itself imports nothing and a command pays only for the
modules it runs.
"""

import importlib

_SOURCES = {
    "basis": ["SectorBasis", "Wavefunction", "enumerate_sector", "apply_hamiltonian"],
    "exact": ["GroundSolution", "FullSpectrum", "lanczos_ground_state", "full_spectrum"],
    "mps": ["MpsState", "random_init", "energy", "optimize_site", "sweep_optimize"],
    "corr": ["CorrelationMatrix", "build_from_wavefunction", "build_from_mps", "build_thermal"],
    "svd_analysis": [
        "SvdSpectrum",
        "ScalingFit",
        "eigendecompose",
        "component",
        "degeneracy_pairs",
        "dominant_wavenumber",
        "measure_domain_size",
        "fit_scaling",
        "kernel_reconstruct",
        "haar_transform",
    ],
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
