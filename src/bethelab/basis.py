"""Computational bases for spin-1/2 chains with a conserved number of down spins.

Conventions used throughout the package:
  - sites are numbered 1..L, site j is stored in bit L-j (site 1 is the
    slowest-varying index in Kronecker products),
  - a set bit means a down spin, the all-up state has index 0,
  - a sector is labelled by N, the number of down spins; S^z = (L - 2N)/2.
"""

from functools import cached_property, lru_cache
from math import comb

import numpy as np


def _sector_states(L, N):
    """Sorted int64 array of the L-bit words with exactly N set bits.

    Built bit by bit: the words with n set bits among the low l+1 bits are
    those among the low l bits (all below 2^l) followed by the words with
    n-1 set bits there plus bit l, so each concatenation stays sorted.  Only
    the levels n that can still reach N with the bits left, and that the
    bits so far can fill, are built.
    """
    words = [np.zeros(1, np.int64)] + [np.zeros(0, np.int64)] * N  # words[n]: n set bits
    for bit in range(L):
        high = np.int64(1) << bit
        for n in range(min(N, bit + 1), max(N - L + bit, 0), -1):  # down: words[n - 1] is old
            words[n] = np.concatenate((words[n], words[n - 1] | high))
    return words[N]


class SectorBasis:
    """Ordered basis of the fixed-N block of the 2^L spin-chain Hilbert space.

    state_array holds the bit configurations as a read-only int64 array,
    strictly increasing, which is ranked with np.searchsorted.  Built on
    first use: states, the same as a list of Python ints, and sites, each
    state's down-spin sites.
    """

    def __init__(self, L, N):
        if not (0 <= N <= L):
            raise ValueError(f"down-spin count N={N} outside 0..L={L}")
        if L > 24:
            raise ValueError(f"chain length L={L} exceeds the supported limit 24")
        self.L = L
        self.N = N
        self.state_array = _sector_states(L, N)
        self.state_array.flags.writeable = False

    @cached_property
    def states(self):
        return self.state_array.tolist()

    @property
    def dim(self):
        return len(self.state_array)

    @cached_property
    def sites(self):
        """Read-only (dim, N) int64 array: the down-spin sites of each state,
        1-based and increasing, read off state_array one bit at a time."""
        sites = np.empty((self.dim, self.N), np.int64)
        filled = np.zeros(self.dim, np.intp)
        for x in range(1, self.L + 1):
            hit = np.flatnonzero((self.state_array >> (self.L - x)) & 1)
            sites[hit, filled[hit]] = x
            filled[hit] += 1
        sites.flags.writeable = False
        return sites

    def __repr__(self):
        return f"SectorBasis(L={self.L}, N={self.N}, dim={self.dim})"


def build_sector_basis(L, N):
    """Enumerate the binomial(L, N) configurations with N down spins.

    The most recent bases are kept and handed out again, so every caller of
    one (L, N) shares a single SectorBasis: its arrays are read-only, and its
    states list must not be changed."""
    return _cached_sector_basis(L, N)


# An off-shell check reads the (L, N) basis in the vector, the Hamiltonian,
# the translation and S^+, and S^+ also reads (L, N - 1).  The cache sits
# behind build_sector_basis so that the public name stays a plain function,
# which profilers and tracers that wrap functions can see.
@lru_cache(maxsize=4)
def _cached_sector_basis(L, N):
    basis = SectorBasis(L, N)
    assert basis.dim == comb(L, N)
    return basis
