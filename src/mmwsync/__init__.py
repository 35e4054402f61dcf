"""Link-level simulator for directional frame-timing synchronization in
quantized wideband mmWave OFDM systems."""

# the one version literal: the submodules, the CLI and the package metadata read it
__version__ = "0.1.0"

from . import (  # noqa: E402  (the submodules import __version__)
    beamforming,
    channel,
    cli,
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
    "detector",
    "montecarlo",
    "optimizer",
    "quantization",
    "sqnr",
    "waveform",
    "__version__",
]
