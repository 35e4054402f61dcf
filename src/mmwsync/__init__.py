"""Link-level simulator for directional frame-timing synchronization in
quantized wideband mmWave OFDM systems."""

# the one version literal: the submodules, the CLI and the package metadata read it
__version__ = "0.1.0"

from . import (  # noqa: E402  (the submodules import __version__)
    beamforming,
    channel,
    config,
    detector,
    montecarlo,
    optimizer,
    quantization,
    sqnr,
    waveform,
)

__all__ = [
    "beamforming",
    "channel",
    "cli",
    "config",
    "detector",
    "montecarlo",
    "optimizer",
    "quantization",
    "sqnr",
    "waveform",
    "__version__",
]


def __getattr__(name):
    # ``cli`` loads on first use, so that ``python -m mmwsync.cli`` runs it once, as __main__
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
