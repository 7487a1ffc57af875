"""Stable multi-window STFT phase retrieval by direct inversion.

Squared-magnitude STFT measurements taken with several windows are
mapped to the signal's ambiguity function by pointwise division on
regions where the window ambiguities are bounded away from zero, then
inverted back to the signal (up to global phase) with a single
one-dimensional inverse transform.  Two window architectures are
provided: fractionally Fourier-transformed dilated Gaussians summed
over a fan of angles, and Hermite functions of increasing degree pieced
together on disjoint annular regions.
"""
from .ambiguity import (
    FrftGaussAmbiguity,
    HermiteAmbiguity,
    eval_frft_gauss_ambiguity,
    eval_gauss_ambiguity,
    eval_hermite_ambiguity,
    numeric_ambiguity,
)
from .exceptions import (
    DegenerateAnchorError,
    EmptyMaskError,
    GridMismatchError,
    OverflowGuardError,
    RetrievalError,
)
from .grid import Grid, Signal, make_grid
from .metrics import BoundReport, misfit, verify_noise_bounds
from .retrieval import (
    Reconstruction,
    RetrievalConfig,
    RetrievalPlan,
    make_plan,
    measure_family,
    measure_lines,
    raw_threshold,
    reconstruct_from_ambiguity,
    run_alg1,
    run_alg2,
)
from .signals import (
    ChirpSpec,
    MixtureSpec,
    chirp_preset,
    gen_chirp,
    gen_mixture,
    mixture_preset,
)
from .special import (
    dilated_gauss_samples,
    frft_gauss_samples,
    hermite_samples,
    laguerre_function,
)
from .stft import add_noise
from .wavio import load_wav, save_wav
from .windows import (
    CoverageReport,
    WindowFamily,
    WindowMember,
    build_frft_family,
    build_hermite_family,
    coverage_radii,
    gauss_window_member,
)

__version__ = "0.1.0"
