"""Computational bases for spin-1/2 chains with a conserved number of down spins.

Conventions used throughout the package:
  - sites are numbered 1..L, site j is stored in bit L-j (site 1 is the
    slowest-varying index in Kronecker products),
  - a set bit means a down spin, the all-up state has index 0,
  - a sector is labelled by N, the number of down spins; S^z = (L - 2N)/2.
"""

from functools import cached_property
from math import comb

import numpy as np

DENSE_DIM_LIMIT = 4096  # dense matrix storage below this dimension, sparse above


def config_to_index(L, xs):
    """Index of the basis state with down spins at sites xs (1-based) in the
    full 2^L space."""
    i = 0
    for x in xs:
        i |= 1 << (L - x)
    return i


def index_to_config(L, i):
    """Down-spin sites (1-based, increasing) of a full-space basis index."""
    return tuple(x for x in range(1, L + 1) if (i >> (L - x)) & 1)


def _sector_states(L, N):
    """Sorted int64 array of the L-bit words with exactly N set bits.

    Built bit by bit: the words with n set bits among the low l+1 bits are
    those among the low l bits (all below 2^l) followed by the words with
    n-1 set bits there plus bit l, so each concatenation stays sorted.
    """
    words = [np.zeros(1, np.int64)] + [np.zeros(0, np.int64)] * N  # words[n]: n set bits
    for bit in range(L):
        high = np.int64(1) << bit
        words = [words[0]] + [np.concatenate((words[n], words[n - 1] | high))
                              for n in range(1, N + 1)]
    return words[N]


class SectorBasis:
    """Ordered basis of the fixed-N block of the 2^L spin-chain Hilbert space.

    states holds the bit configurations as integers, strictly increasing, and
    state_array the same as an int64 array, which is ranked with
    np.searchsorted; index maps a configuration back to its ordinal.
    """

    def __init__(self, L, N):
        if not (0 <= N <= L):
            raise ValueError(f"down-spin count N={N} outside 0..L={L}")
        if L > 24:
            raise ValueError(f"chain length L={L} exceeds the supported limit 24")
        self.L = L
        self.N = N
        self.state_array = _sector_states(L, N)
        self.states = self.state_array.tolist()

    @cached_property
    def index(self):
        return {s: i for i, s in enumerate(self.states)}

    @property
    def dim(self):
        return len(self.states)

    def configs(self):
        """Iterate (ordinal, down-spin site tuple) pairs."""
        for i, s in enumerate(self.states):
            yield i, index_to_config(self.L, s)

    def __repr__(self):
        return f"SectorBasis(L={self.L}, N={self.N}, dim={self.dim})"


def build_sector_basis(L, N):
    """Enumerate the binomial(L, N) configurations with N down spins."""
    basis = SectorBasis(L, N)
    assert basis.dim == comb(L, N)
    return basis

