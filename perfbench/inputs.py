"""Seeded inputs of the three workloads.  The library sees only what these
functions return; the same seed always gives the same inputs."""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

ETA_MIN, ETA_MAX = 0.2, 5.0
DIMS = (2, 4, 6)
P_MAX = 10

# ring_lattice: 25 coaxial rings in d = 4 on a geometric-R, uniform-z grid.
# Radius ratio 1.25 and z step 0.5 keep every pair at eta >= 0.2044.
LATTICE_D = 4
LATTICE_R = tuple(1.25**i for i in range(5))
LATTICE_Z = tuple(0.5 * j for j in range(5))
LATTICE_K = (1, 2, 3)  # q = 1 (inverse power), p = 0 and p = 1 (log)
AZIMUTHS = 4096

# The corner of the acceptance box where the float algebraic route is worst.
CORNER = dict(d=2, k=11, eta=0.2, n=50)


@dataclass(frozen=True)
class RingCase:
    """One source/target point pair and the kernel (d, k) to expand."""

    d: int
    k: int
    x: tuple[float, ...]
    xp: tuple[float, ...]
    eta: float  # as drawn; the library recomputes it from the points

    @property
    def log_regime(self) -> bool:
        return self.k >= self.d // 2

    @property
    def p_or_q(self) -> int:
        return self.k - self.d // 2 if self.log_regime else self.d // 2 - self.k


def ring_points(d: int, R: float, Rp: float, perp_sq: float, phi: float, phip: float,
                rng: random.Random | None = None):
    """Points with ring radii R, Rp, azimuths phi, phip and axial offset
    |x_perp - xp_perp|^2 = perp_sq in a random direction of the d - 2 axial
    coordinates (rng is needed only for d > 2)."""
    axial = [0.0] * (d - 2)
    if d > 2:
        direction = [rng.gauss(0.0, 1.0) for _ in range(d - 2)]
        norm = math.sqrt(sum(v * v for v in direction))
        axial = [math.sqrt(perp_sq) * v / norm for v in direction]
    x = (R * math.cos(phi), R * math.sin(phi), *axial)
    xp = (Rp * math.cos(phip), Rp * math.sin(phip), *([0.0] * (d - 2)))
    return x, xp


# Every (d, k) with d in DIMS and k >= 1 up to p = P_MAX: p = 0..10 three
# times each, q = 1 twice, q = 2 once.
KERNELS = tuple((d, k) for d in DIMS for k in range(1, d // 2 + P_MAX + 1))
ETA_STRATA = 8


def ring_case(rng: random.Random, d: int, k: int, eta: float) -> RingCase:
    """A pair at shape parameter eta, with eta split at random between the
    radius ratio and the axial offset (all of it in the ratio for d = 2)."""
    R = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    share = 1.0 if d == 2 else rng.random()
    Rp = R * math.exp(rng.choice((-1.0, 1.0)) * share * eta)
    perp_sq = max(0.0, 2.0 * R * Rp * math.cosh(eta) - R * R - Rp * Rp) if d > 2 else 0.0
    phi = rng.uniform(-math.pi, math.pi)
    phip = rng.uniform(-math.pi, math.pi)
    x, xp = ring_points(d, R, Rp, perp_sq, phi, phip, rng)
    return RingCase(d, k, x, xp, eta)


def ring_deck(rng: random.Random) -> list[RingCase]:
    """Every kernel in KERNELS once in each of ETA_STRATA equal slices of
    log eta over [0.2, 5], eta log-uniform within its slice, shuffled.

    The cost of a table grows steeply with p and 1/eta, so independent draws
    would let the share of slow tables, and with it the timings, wander from
    seed to seed; every whole deck has the same mix."""
    lo, hi = math.log(ETA_MIN), math.log(ETA_MAX)
    width = (hi - lo) / ETA_STRATA
    deck = []
    for d, k in KERNELS:
        for s in range(ETA_STRATA):
            eta = math.exp(lo + width * (s + rng.random()))
            deck.append(ring_case(rng, d, k, eta))
    rng.shuffle(deck)
    return deck


def ring_stream(seed: int):
    """The seed's endless sequence of ring pairs, deck after deck."""
    rng = random.Random(f"ring_pairs/{seed}")
    while True:
        yield from ring_deck(rng)


def ring_cases(seed: int, count: int) -> list[RingCase]:
    return list(itertools.islice(ring_stream(seed), count))


def corner_case() -> RingCase:
    """The fixed accuracy corner: p = 10 in the plane at eta = 0.2."""
    eta = CORNER["eta"]
    x, xp = ring_points(CORNER["d"], 1.0, math.exp(eta), 0.0, 0.7, 0.0)
    return RingCase(CORNER["d"], CORNER["k"], x, xp, eta)


@dataclass(frozen=True)
class LatticeCase:
    """One (ring pair, k) of the lattice, reconstructed on the shared grid."""

    k: int
    R: float
    Rp: float
    dz: float

    @property
    def log_regime(self) -> bool:
        return self.k >= LATTICE_D // 2

    @property
    def p_or_q(self) -> int:
        half = LATTICE_D // 2
        return self.k - half if self.log_regime else half - self.k

    @property
    def chi(self) -> float:
        return (self.R**2 + self.Rp**2 + self.dz**2) / (2.0 * self.R * self.Rp)


def lattice_pairs() -> list[tuple[float, float, float]]:
    rings = [(r, z) for r in LATTICE_R for z in LATTICE_Z]
    return [
        (rings[i][0], rings[j][0], rings[j][1] - rings[i][1])
        for i in range(len(rings))
        for j in range(i + 1, len(rings))
    ]


def lattice_sweep(seed: int, sweep: int) -> list[LatticeCase]:
    """Every (pair, k) once, in an order drawn from the seed and sweep index."""
    cases = [LatticeCase(k, R, Rp, dz) for R, Rp, dz in lattice_pairs() for k in LATTICE_K]
    random.Random(f"ring_lattice/{seed}/{sweep}").shuffle(cases)
    return cases


def azimuth_grid(seed: int):
    """AZIMUTHS equispaced angles with a seeded phase offset."""
    offset = random.Random(f"azimuths/{seed}").uniform(0.0, 2.0 * math.pi / AZIMUTHS)
    return offset + np.arange(AZIMUTHS) * (2.0 * math.pi / AZIMUTHS)


def describe_ring_cases(cases: list[RingCase]) -> dict:
    """Input properties the layers depend on: p/q and eta histograms."""
    p_hist = [0] * (P_MAX + 1)
    q_hist = {1: 0, 2: 0}
    edges = [0.2, 0.5, 1.0, 2.0, 5.0]
    eta_hist = [0] * (len(edges) - 1)
    for c in cases:
        if c.log_regime:
            p_hist[c.p_or_q] += 1
        else:
            q_hist[c.p_or_q] += 1
        eta_hist[min(bisect.bisect_right(edges, c.eta), len(edges) - 1) - 1] += 1
    return {
        "pairs": len(cases),
        "p_hist": p_hist,
        "q_hist": [q_hist[1], q_hist[2]],
        "eta_edges": edges,
        "eta_hist": eta_hist,
    }


def describe_lattice() -> dict:
    pairs = lattice_pairs()
    chis = {LatticeCase(1, R, Rp, dz).chi for R, Rp, dz in pairs}
    etas = [math.acosh(LatticeCase(1, R, Rp, dz).chi) for R, Rp, dz in pairs]
    return {
        "rings": len(LATTICE_R) * len(LATTICE_Z),
        "pairs": len(pairs),
        "distinct_chi": len(chis),
        "repeated_chi_share": 1.0 - len(chis) / len(pairs),
        "k": list(LATTICE_K),
        "eta_min": min(etas),
        "azimuths": AZIMUTHS,
    }
