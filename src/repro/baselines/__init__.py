"""Every technique the paper compares the interval index against."""

from repro.baselines.boolean_matrix import BitMatrixTCIndex
from repro.baselines.full_closure import FullTCIndex
from repro.baselines.inverse_closure import InverseTCIndex
from repro.baselines.pointer_chasing import PointerChasingIndex, TraversalStats
from repro.baselines.schubert import SchubertIndex, peel_forests
from repro.core.chain_cover import (
    ChainCoverIndex,
    greedy_chain_decomposition,
    optimal_chain_decomposition,
)

#: Jagadish's chain-decomposition compression [18], the Theorem 2
#: comparator, under its baseline name; it is the full chain engine.
ChainTCIndex = ChainCoverIndex

__all__ = [
    "BitMatrixTCIndex",
    "ChainTCIndex",
    "FullTCIndex",
    "InverseTCIndex",
    "PointerChasingIndex",
    "SchubertIndex",
    "TraversalStats",
    "greedy_chain_decomposition",
    "optimal_chain_decomposition",
    "peel_forests",
]
