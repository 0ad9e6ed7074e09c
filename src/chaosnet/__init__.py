"""Chaotic-map reservoir classifier with a low-memory streaming mode.

The package builds the fixed input layer of a feedforward image classifier
from the orbit of a two-dimensional quadratic (Henon-type) discrete map,
trains a small backprop classifier on top of it, tunes the map coefficients
with a random-immigrant particle swarm, and ships analysis tools
(approximate entropy, Poincare pairs, bifurcation sweeps) for the generating
time series.
"""

from chaosnet.maps import MapParams, MapOverflowError, iterate_series
from chaosnet.reservoir import FillMethod, ReservoirConfig, Reservoir, flatten_image, build_matrix
from chaosnet.network import Architecture, TrainConfig, NetworkModel, train, evaluate
from chaosnet.rpso import SwarmConfig, Swarm, optimize
from chaosnet.analysis import ApEnConfig, SweepConfig, approximate_entropy, poincare_pairs, bifurcation_sweep
from chaosnet.mnist import LabeledDataset, SplitPlan, load_idx, make_split
from chaosnet.footprint import FootprintReport

__version__ = "0.1.0"

__all__ = [
    "MapParams",
    "MapOverflowError",
    "iterate_series",
    "FillMethod",
    "ReservoirConfig",
    "Reservoir",
    "flatten_image",
    "build_matrix",
    "Architecture",
    "TrainConfig",
    "NetworkModel",
    "train",
    "evaluate",
    "SwarmConfig",
    "Swarm",
    "optimize",
    "ApEnConfig",
    "SweepConfig",
    "approximate_entropy",
    "poincare_pairs",
    "bifurcation_sweep",
    "LabeledDataset",
    "SplitPlan",
    "load_idx",
    "make_split",
    "FootprintReport",
    "__version__",
]
