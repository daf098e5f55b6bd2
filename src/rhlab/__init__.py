"""rhlab: a pseudo-spectral Euler solver on the rotating 2-sphere with a
Rossby-Haurwitz stability laboratory."""

__version__ = "0.1.0"

from .grid import GridSpec, build_grid, integrate
from .harmonics import (
    E2Coeffs,
    SpectralField,
    analyze,
    e2_to_spectral,
    eval_point,
    load_spectral,
    save_spectral,
    spectral_to_e2,
    synthesize,
)
from .rh_waves import RHState, exact_state, make_rh

__all__ = [
    "GridSpec", "build_grid", "integrate",
    "E2Coeffs", "SpectralField", "analyze", "synthesize", "eval_point",
    "e2_to_spectral", "spectral_to_e2", "save_spectral", "load_spectral",
    "RHState", "make_rh", "exact_state",
    "__version__",
]
