"""Seeded input generators for the benchmark workloads.

Every generator draws from ``random.Random(seed)`` and returns distinct JSON
documents in the CLI's own file formats, so the same seed always gives the
same batch and no two inputs of a batch are equal.  Every document carries
its ``"truncation"`` (at most 16, the CLI's default ``SCATTER_MAX_ORDER``);
the benchmark never passes ``--order``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "complete" for diagram files, "wcf" for BPS problem files
    order: int  # truncation order N of every generated input
    smoke_order: int  # a small N for the smoke path
    generate: Callable[[random.Random, int, int], list[dict]]  # (rng, count, order)


def _frac(c: Fraction) -> str:
    return str(Fraction(c))


def _distinct(rng: random.Random, count: int, draw: Callable[[random.Random], dict]) -> list[dict]:
    """Draw documents until ``count`` distinct ones are collected."""
    seen: set[str] = set()
    out: list[dict] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count + 1000:
            raise RuntimeError("input space too small for the requested batch")
        doc = draw(rng)
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(doc)
    return out


# -- kronecker-r1 ------------------------------------------------------------------

KRONECKER_OMEGA = range(2, 17)  # Omega >= 2 gives the dense generic support


def kronecker_doc(omega1: int, omega2: int, order: int) -> dict:
    """Two K-type lines on (1,0) and (0,1): log = Omega sum_l (1/l) t^l z^(l gamma) d_n."""
    walls = []
    for direction, omega in (((1, 0), omega1), ((0, 1), omega2)):
        terms = [
            {"t": l, "k": l, "matrix": [["0"]], "derivation": _frac(Fraction(omega, l))}
            for l in range(1, order + 1)
        ]
        walls.append({"direction": list(direction), "geometry": "line", "terms": terms})
    return {"rank": 1, "truncation": order, "walls": walls}


def gen_kronecker(rng: random.Random, count: int, order: int) -> list[dict]:
    pairs = [(a, b) for a in KRONECKER_OMEGA for b in KRONECKER_OMEGA]
    chosen = rng.sample(pairs, min(count, len(pairs)))
    return [kronecker_doc(a, b, order) for a, b in chosen]


# -- random-r3 ---------------------------------------------------------------------

RANDOM_RANK = 3


def _small_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        if c or not nonzero:
            return c


def _random_matrix(rng: random.Random, r: int) -> list[list[str]]:
    while True:
        m = [[_small_rational(rng) for _ in range(r)] for _ in range(r)]
        if any(c for row in m for c in row):
            return [[_frac(c) for c in row] for row in m]


def gen_random(rng: random.Random, count: int, order: int) -> list[dict]:
    """Rank 3, two lines, both matrix and derivation parts at (t,k) = (1,1) and (2,1)."""

    def draw(rng: random.Random) -> dict:
        walls = []
        for direction in ((1, 0), (0, 1)):
            terms = [
                {"t": t, "k": 1, "matrix": _random_matrix(rng, RANDOM_RANK),
                 "derivation": _frac(_small_rational(rng, nonzero=True))}
                for t in (1, 2)
            ]
            walls.append({"direction": list(direction), "geometry": "line", "terms": terms})
        return {"rank": RANDOM_RANK, "truncation": order, "walls": walls}

    return _distinct(rng, count, draw)


# -- bps-r4 ------------------------------------------------------------------------

BPS_VACUA = ("a", "b", "c", "d")
# Pairs of non-parallel primitive charge directions with Dirac pairing +-1.
BPS_DIRECTIONS = (((1, 0), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((1, 0), (-1, 1)))
BPS_MU = (-1, 1, 2)
BPS_OMEGA = (1, 2)


def gen_bps(rng: random.Random, count: int, order: int) -> list[dict]:
    """4 vacua, two charge directions, each with 2 S-factors (ordered pairs i<j) and one K.

    The direction pair and the two Omegas set most of an input's cost, so
    they are stratified: every block of 16 consecutive inputs holds each of
    their 16 combinations once, in a seeded order.  The S pairs and the mus
    are drawn freely.  A run then holds nearly the same mix of costs on every
    seed, however many inputs it gets through.
    """
    ordered_pairs = [
        [BPS_VACUA[i], BPS_VACUA[j]]
        for i in range(len(BPS_VACUA)) for j in range(i + 1, len(BPS_VACUA))
    ]
    strata = [(gammas, omegas) for gammas in BPS_DIRECTIONS
              for omegas in itertools.product(BPS_OMEGA, repeat=2)]

    def draw(rng: random.Random, gammas, omegas) -> dict:
        factors = []
        for gamma, omega in zip(gammas, omegas):
            for pair in rng.sample(ordered_pairs, 2):
                factors.append({"type": "S", "pair": pair, "gamma": list(gamma),
                                "mu": rng.choice(BPS_MU)})
            factors.append({"type": "K", "gamma": list(gamma), "Omega": omega})
        return {
            "vacua": list(BPS_VACUA),
            "basepoints": {v: [0, 0] for v in BPS_VACUA},
            "truncation": order,
            "factors": factors,
        }

    block: list = []

    def next_draw(rng: random.Random) -> dict:
        if not block:
            block.extend(rng.sample(strata, len(strata)))
        return draw(rng, *block.pop())

    return _distinct(rng, count, next_draw)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kronecker-r1", "complete", 7, 4, gen_kronecker),
        Workload("random-r3", "complete", 4, 3, gen_random),
        Workload("bps-r4", "wcf", 6, 4, gen_bps),
    )
}
