"""Link-level simulation of symbol timing recovery for ambient backscatter receivers.

The package covers the full pilot-aided pipeline: channel (Rayleigh block
fading or static) and signal generation, frame construction with an
alternating-bit pilot, injection of a sampling-clock offset,
maximum-likelihood estimation of the offset from the received pilot matrix,
clock compensation, and per-symbol energy detection.  Seeded Monte Carlo runners reproduce the estimation
accuracy and bit-error-rate experiments as CSV files.
"""

from .detector import (
    DegenerateChannelError,
    DetectorParams,
    detect_frame,
    ed_threshold,
)
from .estimator import (
    DegenerateSegmentError,
    collect_windows,
    estimate_sto,
    log_likelihood_reduced,
    variance_estimates,
)
from .frame import (
    FrameConfig,
    Waveform,
    apply_sto,
    build_bit_sequence,
    compensate,
    synthesize_received,
)
from .harness import (
    ExperimentConfig,
    resolve_threads,
    run_experiment,
    write_csv,
)
from .signal_model import (
    ChannelModel,
    ChannelState,
    NoisePowers,
    draw_channel,
    gen_cgn_block,
    trial_rng,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "ChannelState",
    "DegenerateChannelError",
    "DegenerateSegmentError",
    "DetectorParams",
    "ExperimentConfig",
    "FrameConfig",
    "NoisePowers",
    "Waveform",
    "apply_sto",
    "build_bit_sequence",
    "collect_windows",
    "compensate",
    "detect_frame",
    "draw_channel",
    "ed_threshold",
    "estimate_sto",
    "gen_cgn_block",
    "log_likelihood_reduced",
    "resolve_threads",
    "run_experiment",
    "synthesize_received",
    "trial_rng",
    "variance_estimates",
    "write_csv",
]
