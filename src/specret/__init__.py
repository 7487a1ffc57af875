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
import ctypes


def _keep_freed_memory() -> None:
    """Let glibc keep freed memory for the next run instead of handing it
    back to the OS, which would fault it in and zero it again.

    Arrays under 32 MiB, glibc's 64-bit ceiling, come from the heap, and
    up to 512 MiB of free heap top is kept, more than the default 40-window
    fan's 351 MB working set at L = 1024.  Both thresholds are set, since
    setting either turns off glibc's dynamic ones: the trim threshold alone
    would map every array above 128 KiB, the mmap threshold alone would
    still trim the heap top at 128 KiB.  Without glibc, or if it refuses a
    value, this logs at debug level and changes nothing more.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError) as exc:
        why = f"no glibc mallopt ({exc})"
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
        if mallopt(-3, 32 << 20) and mallopt(-1, 512 << 20):
            return
        why = "glibc refused a mallopt threshold"
    import logging  # only here: a fresh process pays about 7 ms to import it

    logging.getLogger("specret").debug("%s, freed memory goes back to the OS", why)


_keep_freed_memory()

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
