"""Exact DP-coloring (correspondence coloring) solvers, choosability and
chromatic-number oracles, plane embeddings, and a discharging audit engine.

The package re-exports each module's __all__, and nothing else."""

from .graphs import *
from .planar import *
from .dp import *
from .solver import *
from .reducibility import *
from .discharging import *

__version__ = "0.1.0"
