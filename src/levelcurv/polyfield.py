"""Exact multivariate polynomial fields.

PolyField is the ground truth for the pointwise identity checks: its
derivatives of any order are again polynomials with algebraically exact
coefficients, so identity residuals measure only the identity, never the
differentiation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ExhaustedResampling
from .geometry import Jet, align_frame

MAX_DEGREE = 4


def _multi_indices(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(max_degree + 1):
        for comb in itertools.combinations_with_replacement(range(dim), total):
            alpha = [0] * dim
            for axis in comb:
                alpha[axis] += 1
            out.append(tuple(alpha))
    return sorted(set(out))


@dataclass(frozen=True)
class PolyField:
    """Polynomial in ``dim`` variables, degree <= 4, sparse coefficient map."""

    dim: int
    coeffs: dict

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("PolyField needs dim >= 2")
        for alpha, c in self.coeffs.items():
            if len(alpha) != self.dim:
                raise ValueError(f"multi-index {alpha} does not match dim {self.dim}")
            if sum(alpha) > MAX_DEGREE:
                raise ValueError(f"degree {sum(alpha)} exceeds {MAX_DEGREE}")
            if not np.isfinite(c):
                raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return max((sum(a) for a, c in self.coeffs.items() if c != 0.0), default=0)

    def __neg__(self) -> "PolyField":
        return PolyField(self.dim, {a: -c for a, c in self.coeffs.items()})

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for alpha, c in self.coeffs.items():
            term = c
            for axis, p in enumerate(alpha):
                if p:
                    term *= x[axis] ** p
            total += term
        return float(total)

    def derivative(self, axis: int) -> "PolyField":
        out: dict = {}
        for alpha, c in self.coeffs.items():
            p = alpha[axis]
            if p == 0:
                continue
            beta = list(alpha)
            beta[axis] = p - 1
            beta = tuple(beta)
            out[beta] = out.get(beta, 0.0) + c * p
        return PolyField(self.dim, out)

    def partial(self, order: tuple[int, ...]) -> "PolyField":
        f = self
        for axis, times in enumerate(order):
            for _ in range(times):
                f = f.derivative(axis)
        return f

    def jet(self, point, order: int = 3) -> Jet:
        """Exact jet at a point; hess/third are exactly symmetric by construction."""
        n = self.dim
        point = np.asarray(point, dtype=float)
        grads = [self.derivative(ax) for ax in range(n)]
        grad = np.array([g.evaluate(point) for g in grads])
        hess = np.zeros((n, n))
        hess_fields = {}
        for i in range(n):
            for j in range(i, n):
                fij = grads[i].derivative(j)
                hess_fields[(i, j)] = fij
                v = fij.evaluate(point)
                hess[i, j] = v
                hess[j, i] = v
        third = None
        if order >= 3:
            third = np.zeros((n, n, n))
            for i in range(n):
                for j in range(i, n):
                    for k in range(j, n):
                        v = hess_fields[(i, j)].derivative(k).evaluate(point)
                        for perm in set(itertools.permutations((i, j, k))):
                            third[perm] = v
        return Jet(grad, hess, third)


# the nondegeneracy thresholds of a random test jet at the origin
MIN_GRAD = 0.1
MIN_DET = 1e-4


def _nondegenerate(jet: Jet) -> np.ndarray:
    """|grad| >= ``MIN_GRAD`` and the pre-orientation curvature matrix has
    |det| >= ``MIN_DET``, elementwise over a batch of jets."""
    n = jet.dim
    grad = jet.grad.reshape(-1, n)
    hess = jet.hess.reshape(-1, n, n)
    ok = np.asarray(jet.grad_norm >= MIN_GRAD).reshape(-1)
    aj = align_frame(Jet(grad[ok], hess[ok])).aligned_jet
    a_pre = -aj.hess[:, : n - 1, : n - 1] / aj.grad[:, -1, None, None]
    ok[ok] = np.abs(np.linalg.det(a_pre)) >= MIN_DET
    return ok.reshape(jet.grad.shape[:-1])


def _origin_jets(coeffs: np.ndarray, n: int, order: int = 3) -> Jet:
    """Jets of this order (2 or 3) at the origin of the fields with these coefficient rows.

    A derivative at the origin is its monomial's coefficient times the
    multi-index factorial, bitwise what PolyField.jet(origin, order) evaluates.
    """
    column = {alpha: col for col, alpha in enumerate(_multi_indices(n, MAX_DEGREE))}

    def derivative(axes: tuple[int, ...]) -> np.ndarray:
        alpha = tuple(axes.count(axis) for axis in range(n))
        return coeffs[:, column[alpha]] * math.prod(map(math.factorial, alpha))

    grad = np.stack([derivative((i,)) for i in range(n)], axis=-1)
    hess = np.empty((len(coeffs), n, n))
    for i, j in itertools.product(range(n), repeat=2):
        hess[:, i, j] = derivative((i, j))
    if order < 3:
        return Jet(grad, hess)
    third = np.empty((len(coeffs), n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        third[:, i, j, k] = derivative((i, j, k))
    return Jet(grad, hess, third)


# numpy's default_rng(seed), for a whole batch of seeds at once.
# SeedSequence(seed) hashes the seed's uint32 words into a pool of four,
# PCG64 (O'Neill 2014) is seeded from the pool's output, and
# uniform(-1.0, 1.0) maps each 64-bit output x to -1 + 2 (x >> 11) 2^-53.
# The uint32 and uint64 array arithmetic wraps as the C code's does.
_MASK32 = 0xFFFFFFFF
_SEED_POOL = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; each call advances its constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ out >> 16


def _limbs(values) -> np.ndarray:
    """128-bit ints as a (2, ...) uint64 array of (high, low) limbs."""
    values = np.asarray(values, dtype=object)
    return np.array([values >> 64, values & (1 << 64) - 1], dtype=np.uint64)


def _mul128(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2^128 of (high, low) uint64 limb pairs, broadcast."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a1, a0, b1, b0 = a_lo >> 32, a_lo & _MASK32, b_lo >> 32, b_lo & _MASK32
    p01, p10 = a0 * b1, a1 * b0
    carry = ((a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)) >> 32
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + carry + a_hi * b_lo + a_lo * b_hi
    return high, a_lo * b_lo


def _add128(a, b) -> tuple[np.ndarray, np.ndarray]:
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _pcg64_seeded(seeds: list) -> np.ndarray:
    """PCG64 state and increment of ``default_rng(seed)`` per seed: a (2, 2, seeds) limb array."""
    rest = [operator.index(seed) for seed in seeds]
    if any(seed < 0 for seed in rest):
        raise ValueError("seeds must be nonnegative integers")
    entropy = []  # SeedSequence's: each seed's little-endian uint32 words
    while any(rest):
        entropy.append([seed & _MASK32 for seed in rest])
        rest = [seed >> 32 for seed in rest]
    entropy += [[0] * len(seeds)] * (_SEED_POOL - len(entropy))
    words = np.array(entropy, dtype=np.uint32)
    hashmix = _hasher(_HASH_INIT_A, _HASH_MULT_A)
    pool = [hashmix(word) for word in words[:_SEED_POOL]]
    for src in range(_SEED_POOL):
        for dst in range(_SEED_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_SEED_POOL, len(words)):
        present = words[src:].any(axis=0)  # seeds shorter than src + 1 words stop mixing
        for dst in range(_SEED_POOL):
            pool[dst] = np.where(present, _mix(pool[dst], hashmix(words[src])), pool[dst])
    hashmix = _hasher(_HASH_INIT_B, _HASH_MULT_B)
    out = np.array([hashmix(pool[i % _SEED_POOL]) for i in range(2 * _SEED_POOL)], dtype=np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = out[0::2] | out[1::2] << 32
    inc = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
    # pcg_setseq_128_srandom_r: state = (inc + seed) * mult + inc
    state = _add128(_mul128(_add128(inc, (seed_hi, seed_lo)), _limbs(_PCG_MULT)), inc)
    return np.array([state, inc])


def _pcg64_uniform(pcg: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``uniform(-1.0, 1.0, m)`` from each PCG64 state, and the states after it.

    The k-th output reads the state k steps on, ``state * mult^k + inc *
    (mult^k - 1) / (mult - 1)``, so all m come from one jump-ahead per seed.
    """
    powers, sums = [_PCG_MULT], [1]
    for _ in range(m - 1):
        sums.append((sums[-1] + powers[-1]) % (1 << 128))
        powers.append(powers[-1] * _PCG_MULT % (1 << 128))
    state, inc = pcg[..., None]
    hi, lo = _add128(_mul128(state, _limbs(powers)), _mul128(inc, _limbs(sums)))
    # XSL-RR output: (hi ^ lo) rotated right by the state's top six bits
    turn = hi >> 58
    x = (hi ^ lo) >> turn | (hi ^ lo) << (64 - turn & 63)
    values = -1.0 + 2.0 * ((x >> 11).astype(np.float64) * 2.0**-53)
    return values, np.array([[hi[:, -1], lo[:, -1]], pcg[1]])


RANDOM_JET_DIMS = (2, 3, 4)


@dataclass(frozen=True)
class RandomJets:
    """Seeded random fields: coefficient rows and their order-3 origin jets."""

    n: int
    coeffs: np.ndarray  # (fields, terms), terms in _multi_indices order
    jets: Jet  # batch of one order-3 jet at the origin per field

    def field(self, index: int) -> PolyField:
        return PolyField(self.n, dict(zip(_multi_indices(self.n, MAX_DEGREE), self.coeffs[index])))


def random_test_jets(seeds, n: int) -> RandomJets:
    """Deterministic random degree-4 fields, one per seed, nondegenerate at the origin.

    Each seed owns the ``default_rng(seed)`` stream, and the streams of all
    seeds are computed in one pass.  Coefficients are ``uniform(-1.0, 1.0)``
    draws; a field's draw is repeated from its own stream until, at the
    origin, it passes ``_nondegenerate``, so a field does not depend on the
    batch it is drawn in.  Raises ExhaustedResampling when a field needs more
    than 1000 draws.
    """
    if n not in RANDOM_JET_DIMS:
        raise ValueError(f"random test jets support n in {RANDOM_JET_DIMS}, got {n}")
    seeds = list(seeds)
    coeffs = np.empty((len(seeds), len(_multi_indices(n, MAX_DEGREE))))
    redraw = np.arange(len(seeds))
    pcg = _pcg64_seeded(seeds)
    for _ in range(1000):
        coeffs[redraw], pcg = _pcg64_uniform(pcg, coeffs.shape[1])
        rejected = ~_nondegenerate(_origin_jets(coeffs[redraw], n, order=2))
        redraw, pcg = redraw[rejected], pcg[..., rejected]
        if redraw.size == 0:
            return RandomJets(n, coeffs, _origin_jets(coeffs, n))
    raise ExhaustedResampling(
        f"no nondegenerate field after 1000 draws (seed={seeds[redraw[0]]}, n={n})"
    )
