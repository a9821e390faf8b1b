"""Re-derive the generating vector of the embedded rank-1 lattice in
``mvn._LATTICE_Z``.

The kernel evaluates the lattice in radical-inverse order, so after 2^m
points it has used exactly the rank-1 lattice {k z / 2^m : k < 2^m}, with
z taken mod 2^m, at every m from its first round on.  The vector is chosen
component by component (CBC; Cools, Kuo & Nuyens 2006) for all of those
rules at once (an embedded criterion).

Criterion.  For one n = 2^m, the squared worst-case error, averaged over
the random shift, of the tent-transformed lattice rule in the unanchored
Sobolev space of smoothness 1 with unit weights is

    e_m(z)^2 = -1 + (1/n) sum_{k<n} prod_j (1 + B_2({k z_j / n})),

with B_2(x) = x^2 - x + 1/6: the P_2 criterion with product weights
1/(2 pi^2).  (The tent transform maps cos(pi h x) to cos(2 pi h x), so
after averaging over the shift the tent-transformed rule has the same
kernel as the plain shifted one.)  Component s minimizes, over the odd
z_s < 2^(M_HI - 1), the worst case over m in [M_LO, M_HI] of n e_m: the
error measured against the 1/n rate, so that no m of the range is given up
for the others.  Ties go to the smallest z_s.  z and 2^M_HI - z give the
same rule at every m, so only the smaller is a candidate.

With weights 1 on the 2 pi^2 B_2 kernel instead, the origin's term,
(1 + pi^2 / 3)^s, swamps the criterion after about ten components and the
search returns repeated components.

Each step costs O(2^M_HI log 2^M_HI) by the fast CBC of Nuyens & Cools
(2006): every odd residue mod 2^L is +-5^b and B_2(1 - x) = B_2(x), so the
sum over the odd k of one 2-adic level is a cyclic correlation of length
2^(L-2), done with the FFT.

Usage::

    python3 tools/cbc_lattice.py [COMPONENTS]

prints the first COMPONENTS (default 12) components, one line, and needs
only numpy.
"""

from __future__ import annotations

import sys

import numpy as np

# the lattice sizes 2^M_LO .. 2^M_HI the criterion covers: the kernel's
# first round, 64 points, up to about a million points per shift
M_LO = 6
M_HI = 20
COMPONENTS = 12


def _bernoulli2(x):
    return x * x - x + 1.0 / 6.0


def generating_vector(components: int = COMPONENTS, m_lo: int = M_LO,
                      m_hi: int = M_HI) -> list[int]:
    """The first ``components`` entries of the embedded CBC vector."""
    size = 1 << m_hi
    n_cand = size >> 2
    # candidate a is z = 5^a mod 2^m_hi; with -z it covers every odd residue
    powers = np.empty(n_cand, dtype=np.int64)
    z = 1
    for a in range(n_cand):
        powers[a] = z
        z = z * 5 % size
    smaller = np.minimum(powers, size - powers)
    # prod_j (1 + B_2({k z_j / 2^m_hi})) over the components so far; the
    # rule with 2^m points reads every 2^(m_hi - m)-th entry
    prod = np.ones(size)
    k = np.arange(size, dtype=np.int64)
    vector: list[int] = []
    for _ in range(components):
        # sum_k prod(k) and, per candidate, sum_k prod(k) B_2({k z / n}) over
        # the rule so far.  Level L adds the k = 2^(m_hi - L) k' with k' odd,
        # so levels 1..L make up the rule with 2^L points.
        mass = prod[0]
        corr = np.full(n_cand, prod[0] * _bernoulli2(0.0))
        scaled = []
        for level in range(1, m_hi + 1):
            stride = 1 << (m_hi - level)
            if level == 1:
                mass += prod[stride]
                corr += prod[stride] * _bernoulli2(0.5)
            else:
                period = 1 << (level - 2)
                odd = powers[:period] % (1 << level)
                q = prod[odd * stride] + prod[((1 << level) - odd) * stride]
                w = _bernoulli2(odd / (1 << level))
                cyc = np.fft.irfft(np.conj(np.fft.rfft(q)) * np.fft.rfft(w), period)
                mass += q.sum()
                corr += np.resize(cyc, n_cand)
            if level >= m_lo:
                n = 1 << level
                err2 = (mass + corr) / n - 1.0
                scaled.append(n * np.sqrt(np.maximum(err2, 0.0)))
        score = np.max(scaled, axis=0)
        ties = np.flatnonzero(score <= score.min() * (1.0 + 1e-10))
        z = int(smaller[ties].min())
        vector.append(z)
        prod *= 1.0 + _bernoulli2((z * k % size) / size)
    return vector


def main(argv: list[str]) -> int:
    components = int(argv[0]) if argv else COMPONENTS
    print(" ".join(str(z) for z in generating_vector(components)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
