"""Hybrid beamforming design for joint mmWave radar-communication transmitters.

The package splits into small layers: array geometry (`ula`), random channel
draws (`channel`), the structured hybrid beamformer model (`hybrid`), the
alternating design algorithm (`altmin`), performance figures (`metrics`) and
the experiment command line (`cli`).
"""

from .altmin import (
    AltMinConfig,
    AltMinReport,
    AuxiliaryUnitary,
    SolverError,
    alternating_minimization,
    alternating_minimization_stack,
)
from .channel import ChannelParams, ChannelRealization, generate_channel, optimal_digital_beamformers
from .hybrid import AnalogBeamformer, BasebandBeamformer, HybridBeamformer, normalize_power
from .metrics import achievable_rate, fitting_errors, peak_deviation
from .ula import TargetScene, UlaConfig, beampattern, covariance_of, radar_beamformer, steering_vector

__version__ = "0.1.0"

__all__ = [
    "AltMinConfig",
    "AltMinReport",
    "AnalogBeamformer",
    "AuxiliaryUnitary",
    "BasebandBeamformer",
    "ChannelParams",
    "ChannelRealization",
    "HybridBeamformer",
    "SolverError",
    "TargetScene",
    "UlaConfig",
    "achievable_rate",
    "alternating_minimization",
    "alternating_minimization_stack",
    "beampattern",
    "covariance_of",
    "fitting_errors",
    "generate_channel",
    "normalize_power",
    "optimal_digital_beamformers",
    "peak_deviation",
    "radar_beamformer",
    "steering_vector",
]
