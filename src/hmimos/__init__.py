"""Deterministic simulator for tri-polarized holographic MIMO surface links
in the near field: channel synthesis, interference-eliminating precoders,
power allocation and performance metrics.

The names below are the pipeline's entry points; everything else lives in
its module (``hmimos.channel``, ``hmimos.precoding``, ...)."""

from .channel import PolarizedChannel, assemble_channel
from .config import load_scenario
from .correlation import transmit_correlation
from .errors import (
    CapacityExceededError,
    ConfigError,
    GeometryError,
    PrecoderDegeneracyError,
    SingularityError,
)
from .experiments import figure_preset, se_sweep
from .geometry import Scenario, SurfaceSpec, UserPlacement
from .metrics import capacity_families, channel_dof
from .power import pa1_select, pa2_equal, pa3_two_layer
from .precoding import cluster_link, two_layer_precoder

__all__ = [
    "PolarizedChannel",
    "assemble_channel",
    "load_scenario",
    "transmit_correlation",
    "CapacityExceededError",
    "ConfigError",
    "GeometryError",
    "PrecoderDegeneracyError",
    "SingularityError",
    "figure_preset",
    "se_sweep",
    "Scenario",
    "SurfaceSpec",
    "UserPlacement",
    "capacity_families",
    "channel_dof",
    "pa1_select",
    "pa2_equal",
    "pa3_two_layer",
    "cluster_link",
    "two_layer_precoder",
]
