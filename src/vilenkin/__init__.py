"""Fourier analysis on bounded Vilenkin groups.

Group and digit plumbing (group), the character system (characters), Cesaro
binomials (binomials), step functions and transforms (transform), kernels and
bound scans (kernels), oscillation functionals (oscillation), test-function
families (families), the config format (config), and a CLI (cli, entry point
`vilenkin`, its suites in verify). verify and oracles are not imported here.
"""

from .group import (
    NumberSystem,
    RadixSequence,
    build_number_system,
    coset_rep_cells,
    digits_of,
    number_system,
    scale_of,
)
from .errors import (
    ConfigurationError,
    DomainError,
    UsageError,
    ValidationError,
    VilenkinError,
)
from .characters import character_block, vilenkin_on_cells
from .binomials import CesaroTable, cesaro_table
from .transform import (
    CoefficientVector,
    StepFunction,
    cesaro_mean,
    cesaro_means,
    convolve,
    fejer_mean,
    forward,
    inverse,
    multiplier,
    partial_sum,
    sup_distance,
    synthesize,
)
from .kernels import (
    BoundScanRecord,
    cesaro_kernel,
    coset_decay_scan,
    dirichlet,
    majorant_ratio_scan,
)
from .oscillation import (
    OscillationProfile,
    SeriesReport,
    YoungFunction,
    difference_condition,
    modulus_of_continuity,
    oscillation_profile,
    oscillation_series,
    young_oscillation_score,
    young_series,
)
from . import families

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
