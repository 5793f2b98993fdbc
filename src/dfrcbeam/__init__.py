"""Hybrid beamforming design for joint mmWave radar-communication transmitters.

The package splits into small layers: array geometry (`ula`), random channel
draws (`channel`), the structured hybrid beamformer model (`hybrid`), the
alternating design algorithm (`altmin`), performance figures (`metrics`) and
the experiment command line (`cli`).

The names below are loaded on first use (PEP 562), so `import dfrcbeam`
loads no numpy; `cli` sets the BLAS thread count before it loads numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "altmin": ("AltMinConfig", "AltMinReport", "AuxiliaryUnitary", "SolverError",
               "StackDesigns", "alternating_minimization", "alternating_minimization_stack"),
    "channel": ("ChannelParams", "ChannelRealization", "generate_channel",
                "optimal_digital_beamformers"),
    "hybrid": ("AnalogBeamformer", "BasebandBeamformer", "HybridBeamformer",
               "normalize_power"),
    "metrics": ("achievable_rate", "fitting_errors", "peak_deviation"),
    "ula": ("TargetScene", "UlaConfig", "beampattern", "covariance_of",
            "radar_beamformer", "steering_vector"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # the submodules stay attributes of the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
