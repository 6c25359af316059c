"""Context distributions with analytic log-density gradients.

Six base families are supported: gaussian, laplace, uniform_ball,
exponential, student_t, cauchy.  Any of them can be truncated to an l2 ball
or a per-coordinate box.  A box truncation of a family with independent
coordinates is drawn exactly by inverse CDF, one uniform per coordinate;
ball truncations and boxes around correlated gaussians are drawn by
whole-vector rejection.

Sampling is a primitive draw, the only step that uses a generator, followed
by a deterministic map from those variates to vectors.  R generators fill
the slots of one (R, n, d) block and a single map converts the whole block;
the map works element by element or row by row, so each slot equals the
draw of its generator alone.  Rejection fills the block slot by slot.
`sample_context_set` returns one round's (R, K, d) context block; one
replication is the block R = 1.  `log_density` and `grad_log_density`
evaluate every row of an (n, d) array of points.

Every family carries a local anti-concentration (LAC) envelope, a
non-decreasing function L(r) = a1 + a2 * r**alpha with

    ||grad log f(x)||_inf <= L(||x||_inf)    on the support,

which `verify_lac` certifies numerically and `decay_rate_check` converts
into a two-sided density decay bound on bounded regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial

import numpy as np

# The parameters each family reads, in config order.  A spec sets only its
# family's fields; every other field keeps its default.
PARAMS = {
    "gaussian": ("mean", "cov", "rho"),
    "laplace": ("loc", "scale"),
    "uniform_ball": ("radius",),
    "exponential": ("rate",),
    "student_t": ("df",),
    "cauchy": ("loc", "scale"),
}
KINDS = tuple(PARAMS)
_SCALAR_PARAMS = ("rho", "radius", "df")
_POSITIVE_PARAMS = ("scale", "radius", "rate", "df")

# Kinds whose coordinates can be independent, so that a box truncation
# factorizes and each coordinate is drawn exactly by its inverse CDF.
_COORDWISE_KINDS = ("laplace", "exponential", "student_t", "cauchy", "gaussian")

MAX_REJECTION_ATTEMPTS = 10**6
MIN_REGION_MASS = 1e-3
KINK_TOL = 1e-8
_FEASIBILITY_PROBE = 2000
# The gaussian map of a slot of at least two blocks of _MAP_ROWS rows and
# at most _MAP_MAX_WIDTH columns writes each row block back into the
# primitive draw, so a Monte-Carlo pool is held once.  A row block of a GEMM
# rounds like the one-call product only when blocks are tall and rows
# narrow: with OpenBLAS 0.3.31 on an AVX-512 Xeon, 1-row blocks (gemv),
# 20-row blocks at d = 33 and 64-row blocks at d = 100 differed, and so did
# the last rows of 4096-row blocks at widths in 193..255.
_MAP_ROWS = 4096
_MAP_MAX_WIDTH = 128


class OutOfSupportError(ValueError):
    """Point lies outside the support of the distribution."""


class DegenerateInputError(ValueError):
    """Density is not differentiable at the requested point."""


class InfeasibleTruncationError(ValueError):
    """Truncation region has near-zero mass or rejection exceeded its cap."""


# ---------------------------------------------------------------------------
# Truncation regions


@dataclass(frozen=True)
class Region:
    """Truncation region: an l2 ball around the origin, or a coordinate box.

    Box bounds are scalars (applied to every coordinate) or per-coordinate
    tuples; all bounds are finite so every region is bounded in sup norm.
    """

    kind: str
    radius: float | None = None
    lo: float | tuple[float, ...] | None = None
    hi: float | tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "ball":
            if self.radius is None or not np.isfinite(self.radius) or self.radius <= 0:
                raise ValueError("ball region needs a finite positive radius")
        elif self.kind == "box":
            for name in ("lo", "hi"):
                v = getattr(self, name)
                if np.ndim(v) > 0:
                    object.__setattr__(self, name, tuple(float(x) for x in np.asarray(v)))
                else:
                    object.__setattr__(self, name, float(v))
            lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
            hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
            if lo.shape != hi.shape:
                raise ValueError("box bounds must have matching shapes")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("box bounds must be finite")
            if not np.all(lo < hi):
                raise ValueError("box needs lo < hi in every coordinate")
        else:
            raise ValueError(f"unknown region kind {self.kind!r}")

    def contains(self, x, margin: float = 0.0) -> np.ndarray:
        """Containment mask for points in the last axis of `x`, shrunk by margin."""
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return np.linalg.norm(x, axis=-1) <= self.radius - margin
        lo, hi = _vec(self.lo, x.shape[-1]), _vec(self.hi, x.shape[-1])
        return np.all((x >= lo + margin) & (x <= hi - margin), axis=-1)

    def sup_norm_radius(self) -> float:
        if self.kind == "ball":
            return float(self.radius)
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        return float(np.max(np.maximum(np.abs(lo), np.abs(hi))))

    def l2_radius(self, d: int) -> float:
        """Radius of the smallest origin-centered l2 ball containing the region."""
        if self.kind == "ball":
            return float(self.radius)
        lo, hi = _vec(self.lo, d), _vec(self.hi, d)
        return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))

    def pinned_dim(self) -> int | None:
        if self.kind == "box" and np.ndim(self.lo) > 0:
            return len(self.lo)
        return None


def ball(radius: float) -> Region:
    return Region("ball", radius=float(radius))


def box(lo, hi) -> Region:
    """A coordinate box; a one-element side broadcasts to the other's length."""
    if np.ndim(lo) > 0 or np.ndim(hi) > 0:
        lo, hi = np.broadcast_arrays(np.atleast_1d(lo), np.atleast_1d(hi))
    return Region("box", lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# Distribution specs


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Closed description of one arm's context distribution.

    A spec sets only the parameters its family reads (PARAMS); setting any
    other away from its default raises.  Scalars broadcast over coordinates,
    so a spec with scalar parameters works at any dimension, while
    vector/matrix parameters pin the dimension.  `rho` is an equicorrelation
    shortcut for gaussian specs with scalar `cov`: the covariance resolves
    to cov * ((1 - rho) I + rho * ones) at sampling time.

    Specs are frozen after construction, so the per-spec caches of resolved
    parameters stay valid, and safe to share; every sampling call takes its
    own random generator.
    """

    kind: str
    mean: float | np.ndarray = 0.0      # gaussian
    cov: float | np.ndarray = 1.0       # gaussian: variance, diagonal, or matrix
    rho: float = 0.0                    # gaussian equicorrelation (scalar cov only)
    loc: float | np.ndarray = 0.0       # laplace / cauchy
    scale: float | np.ndarray = 1.0     # laplace / cauchy
    radius: float = 1.0                 # uniform_ball
    rate: float | np.ndarray = 1.0      # exponential
    df: float = 1.0                     # student_t
    truncation: Region | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for field in fields(self)[1:-1]:  # the parameters between kind and truncation
            name, v = field.name, getattr(self, field.name)
            if name not in PARAMS[self.kind]:
                if np.ndim(v) > 0 or v != field.default:
                    raise ValueError(f"{self.kind} spec does not read {name!r}")
                continue
            if np.ndim(v) == 0:
                v = float(v)
            elif name in _SCALAR_PARAMS:
                raise ValueError(f"{self.kind} {name} must be a scalar")
            else:
                v = np.asarray(v, dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{self.kind} {name} must be finite")
            if name in _POSITIVE_PARAMS and np.any(v <= 0):
                raise ValueError(f"{self.kind} {name} must be strictly positive")
            object.__setattr__(self, name, v)
        if self.kind == "gaussian":
            self._validate_gaussian()
        if self.truncation is not None and not isinstance(self.truncation, Region):
            raise ValueError("truncation must be a Region")
        # Raises on inconsistent parameter dimensions; resolve_dim reads it.
        object.__setattr__(self, "_pinned_dim", pinned_dim(self))

    def _validate_gaussian(self):
        cov = self.cov
        if np.ndim(cov) == 0:
            if cov <= 0:
                raise ValueError("gaussian variance must be positive")
            if not -1.0 < self.rho < 1.0:
                raise ValueError("rho must lie in (-1, 1)")
        elif np.ndim(cov) == 1:
            if np.any(cov <= 0):
                raise ValueError("gaussian diagonal covariance must be positive")
            if self.rho != 0.0:
                raise ValueError("rho requires a scalar cov")
        else:
            if self.rho != 0.0:
                raise ValueError("rho requires a scalar cov")
            if cov.shape[0] != cov.shape[1]:
                raise ValueError("gaussian covariance must be square")
            if np.abs(cov - cov.T).max() > 1e-10 * max(1.0, np.abs(cov).max()):
                raise ValueError("gaussian covariance must be symmetric")
            if np.linalg.eigvalsh(cov)[0] <= 0:
                raise ValueError("gaussian covariance must be positive definite")


def gaussian_spec(mean=0.0, cov=1.0, rho=0.0, truncation=None) -> DistributionSpec:
    return DistributionSpec("gaussian", mean=mean, cov=cov, rho=rho,
                            truncation=truncation)


def laplace_spec(loc=0.0, scale=1.0, truncation=None) -> DistributionSpec:
    return DistributionSpec("laplace", loc=loc, scale=scale, truncation=truncation)


def uniform_ball_spec(radius=1.0, truncation=None) -> DistributionSpec:
    return DistributionSpec("uniform_ball", radius=radius, truncation=truncation)


def exponential_spec(rate=1.0, truncation=None) -> DistributionSpec:
    return DistributionSpec("exponential", rate=rate, truncation=truncation)


def student_t_spec(df, truncation=None) -> DistributionSpec:
    return DistributionSpec("student_t", df=df, truncation=truncation)


def cauchy_spec(loc=0.0, scale=1.0, truncation=None) -> DistributionSpec:
    return DistributionSpec("cauchy", loc=loc, scale=scale, truncation=truncation)


def pinned_dim(spec: DistributionSpec) -> int | None:
    """Dimension fixed by vector/matrix parameters, or None if d-agnostic."""
    dims = {np.shape(v)[0] for v in (getattr(spec, name) for name in PARAMS[spec.kind])
            if np.ndim(v) > 0}
    if spec.truncation is not None:
        rd = spec.truncation.pinned_dim()
        if rd is not None:
            dims.add(rd)
    if len(dims) > 1:
        raise ValueError(f"inconsistent parameter dimensions: {sorted(dims)}")
    return dims.pop() if dims else None


def resolve_dim(spec: DistributionSpec, d: int | None) -> int:
    pin = spec._pinned_dim
    if d is None:
        if pin is None:
            raise ValueError("spec does not pin a dimension; pass d explicitly")
        return pin
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    if pin is not None and pin != d:
        raise ValueError(f"spec pins dimension {pin}, got d={d}")
    return d


def _vec(param, d: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(param, dtype=float), (d,))


@lru_cache(maxsize=512)
def _gauss_resolved(spec: DistributionSpec, d: int):
    """(mean, cov, cholesky, inverse, is_diagonal) for a gaussian spec at dim d."""
    mean = _vec(spec.mean, d).copy()
    cov = spec.cov
    if np.ndim(cov) == 0:
        if spec.rho != 0.0:
            if d > 1 and spec.rho <= -1.0 / (d - 1):
                raise ValueError(f"rho={spec.rho} is not positive definite at d={d}")
            C = cov * ((1.0 - spec.rho) * np.eye(d) + spec.rho * np.ones((d, d)))
            diagonal = False
        else:
            C = cov * np.eye(d)
            diagonal = True
    elif np.ndim(cov) == 1:
        C = np.diag(cov)
        diagonal = True
    else:
        C = np.asarray(cov, dtype=float)
        diagonal = bool(np.count_nonzero(C - np.diag(np.diagonal(C))) == 0)
    L = np.linalg.cholesky(C)
    Cinv = np.linalg.inv(C)
    Cinv = 0.5 * (Cinv + Cinv.T)
    return mean, C, L, Cinv, diagonal


# ---------------------------------------------------------------------------
# Sampling


def _draw(spec: DistributionSpec, d: int, n: int,
          rng: np.random.Generator) -> np.ndarray:
    """The primitive variates of n untruncated vectors: everything the
    generator contributes to them, in the order a single draw takes it.  A
    row has d columns, plus the radius uniform for the ball."""
    if spec.kind == "gaussian":
        return rng.standard_normal((n, d))
    if spec.kind == "exponential":
        return rng.standard_exponential((n, d))
    if spec.kind == "uniform_ball":
        P = np.empty((n, d + 1))
        P[:, :d] = rng.standard_normal((n, d))
        P[:, d] = rng.random(n)
        return P
    if spec.kind == "laplace":
        return rng.laplace(size=(n, d))
    if spec.kind == "student_t":
        return rng.standard_t(spec.df, size=(n, d))
    return rng.standard_cauchy((n, d))


def _map(spec: DistributionSpec, d: int, P: np.ndarray) -> np.ndarray:
    """The untruncated vectors of the primitive variates P (..., n, width),
    computed in place where the map allows.

    The map works element by element or row by row (a stacked matmul is one
    BLAS call per slot), so each slot of a block maps exactly as it would
    alone.  A gaussian slot of many rows, a Monte-Carlo pool, is mapped in
    row blocks written back into P, the last block taking the tail; the
    blocks round like the one-call product (see _MAP_ROWS).  Parameters
    enter as the spec holds them: a scalar broadcasts over the block in one
    inner loop rather than one per row."""
    if spec.kind == "gaussian":
        _, _, L, _, _ = _gauss_resolved(spec, d)
        n = P.shape[-2]
        if n < 2 * _MAP_ROWS or d > _MAP_MAX_WIDTH:
            P = P @ L.T
        else:
            stops = [*range(_MAP_ROWS, n - _MAP_ROWS + 1, _MAP_ROWS), n]
            for slot in P:
                for start, stop in zip([0, *stops], stops):
                    slot[start:stop] = slot[start:stop] @ L.T
        P += spec.mean
        return P
    if spec.kind == "uniform_ball":
        z = P[..., :d]
        norms = np.linalg.norm(z, axis=-1, keepdims=True)
        norms[norms == 0.0] = 1.0
        r = spec.radius * P[..., d] ** (1.0 / d)
        out = np.divide(z, norms)
        out *= r[..., None]
        return out
    if spec.kind == "exponential":
        P *= 1.0 / spec.rate
    elif spec.kind != "student_t":
        P *= spec.scale
        P += spec.loc
    return P


def _sample_raw(spec: DistributionSpec, d: int, n: int, rngs) -> np.ndarray:
    """(len(rngs), n, d) untruncated vectors; slot r is drawn from rngs[r].
    One generator's draw is used as it comes, so an n-row pool is never
    copied."""
    if len(rngs) == 1:
        P = _draw(spec, d, n, rngs[0])[None]
    else:
        P = np.empty((len(rngs), n, d + (spec.kind == "uniform_ball")))
        for r, rng in enumerate(rngs):
            P[r] = _draw(spec, d, n, rng)
    return _map(spec, d, P)


def _coordwise_box(spec: DistributionSpec, d: int) -> bool:
    """True when box truncation factorizes over independent coordinates."""
    if spec.truncation is None or spec.truncation.kind != "box":
        return False
    if spec.kind not in _COORDWISE_KINDS:
        return False
    if spec.kind == "gaussian":
        _, _, _, _, diagonal = _gauss_resolved(spec, d)
        return diagonal
    return True


def _cauchy_icdf(u, out):
    """tan(pi (u - 0.5)), written into out."""
    np.subtract(u, 0.5, out=out)
    out *= math.pi
    return np.tan(out, out=out)


def _laplace_icdf(u, out):
    """-sign(u - 0.5) log1p(-2 |u - 0.5|), written into out."""
    np.subtract(u, 0.5, out=out)
    sign = np.sign(out)
    np.negative(sign, out=sign)
    np.abs(out, out=out)
    out *= -2.0
    np.log1p(out, out=out)
    out *= sign
    return out


def _student_t2_icdf(u, out):
    """(2u - 1) / sqrt(2u (1 - u)), written into out: Student's t inverse CDF
    at df = 2 in closed form, the bits of scipy's stdtrit(2, u) on (0, 1]
    in a quarter of its time."""
    v = np.subtract(1.0, u)
    np.multiply(u, 2.0, out=out)
    v *= out
    np.sqrt(v, out=v)
    out -= 1.0
    out /= v
    return out


def _exponential_icdf(u, out):
    """-log1p(-u), written into out."""
    np.negative(u, out=out)
    np.log1p(out, out=out)
    return np.negative(out, out=out)


# Standard CDF G and its inverse for the closed-form families, drawn as
# X = loc + scale * Z with Z ~ G.  Each inverse takes (u, out=...) like the
# scipy.special ufuncs of the other families, so a block is mapped in place.
_STANDARD_CDFS = {
    "cauchy": (lambda z: 0.5 + np.arctan(z) / math.pi, _cauchy_icdf),
    "laplace": (lambda z: 0.5 - 0.5 * np.sign(z) * np.expm1(-np.abs(z)),
                _laplace_icdf),
    "exponential": (lambda z: -np.expm1(-np.maximum(z, 0.0)), _exponential_icdf),
}


@lru_cache(maxsize=512)
def _box_inverse_cdf(spec: DistributionSpec, d: int):
    """(lo, hi, loc, scale, a, w, G^-1) for a factorizing box truncation.

    A coordinate truncated to [lo, hi] is loc + scale * G^-1(a + w U), with
    a = G(zlo), w = G(zhi) - G(zlo) for the standardized bounds and U
    uniform on [0, 1): an exact draw (Devroye 1986, section 2.1).  The
    exponential starts at max(lo, 0), which memorylessness allows.
    scipy.special is imported only by the families that need it, keeping it
    out of every other process.
    """
    lo, hi = _vec(spec.truncation.lo, d), _vec(spec.truncation.hi, d)
    if spec.kind == "student_t":
        from scipy.special import stdtr, stdtrit
        cdf = partial(stdtr, spec.df)
        icdf = _student_t2_icdf if spec.df == 2 else partial(stdtrit, spec.df)
        loc, scale = 0.0, 1.0
    elif spec.kind == "gaussian":
        from scipy.special import ndtr as cdf, ndtri as icdf
        loc, C, _, _, _ = _gauss_resolved(spec, d)
        scale = np.sqrt(np.diagonal(C))
    elif spec.kind == "exponential":
        cdf, icdf = _STANDARD_CDFS["exponential"]
        loc, scale = np.maximum(lo, 0.0), 1.0 / _vec(spec.rate, d)
    else:
        cdf, icdf = _STANDARD_CDFS[spec.kind]
        loc, scale = _vec(spec.loc, d), _vec(spec.scale, d)
    a = cdf((lo - loc) / scale)
    return lo, hi, loc, scale, a, cdf((hi - loc) / scale) - a, icdf


@lru_cache(maxsize=512)
def _check_feasible(spec: DistributionSpec, d: int) -> None:
    """Check that the truncation region has the mass sampling relies on.

    A factorizing box truncation (drawn by inverse CDF) needs each
    coordinate's interval mass, which its inverse CDF already holds
    exactly.  A region drawn by rejection needs the whole region's mass,
    read off a Monte-Carlo probe with a fixed private generator, so caller
    streams are untouched and results do not depend on whether the
    (cached) check already ran.
    """
    region = spec.truncation
    if region is None:
        return
    if _coordwise_box(spec, d):
        w = _box_inverse_cdf(spec, d)[5]
        if np.any(w < MIN_REGION_MASS):
            j = int(np.argmin(w))
            raise InfeasibleTruncationError(
                f"coordinate {j} mass {w[j]:.2e} below {MIN_REGION_MASS:.0e}")
        return
    probe = np.random.default_rng(181081)
    X = _sample_raw(spec, d, _FEASIBILITY_PROBE, (probe,))[0]
    acc = float(np.mean(region.contains(X)))
    if acc < MIN_REGION_MASS:
        raise InfeasibleTruncationError(
            f"region acceptance {acc:.2e} below {MIN_REGION_MASS:.0e}")


def _sample_reject_vectors(spec: DistributionSpec, d: int, rng: np.random.Generator,
                           out: np.ndarray,
                           max_attempts: int = MAX_REJECTION_ATTEMPTS) -> None:
    """Fill the rows of `out` with whole-vector rejection draws, in order;
    raises once more than max_attempts candidates per row leave one unfilled."""
    region = spec.truncation
    n, filled, tried, mult = out.shape[0], 0, 0, 1
    while filled < n:
        cand = _sample_raw(spec, d, (n - filled) * mult, (rng,))[0]
        good = cand[region.contains(cand)][:n - filled]
        out[filled:filled + good.shape[0]] = good
        filled += good.shape[0]
        tried += mult
        if filled < n and tried > max_attempts:
            raise InfeasibleTruncationError(f"rejection cap {max_attempts} exceeded")
        mult = min(mult * 2, 4096)


def _sample_block(spec: DistributionSpec, d: int, n: int, rngs) -> np.ndarray:
    """(len(rngs), n, d) block of vectors from the spec, restricted to its
    truncation region if any; slot r is drawn from rngs[r] alone.

    Each generator fills its slot with primitive variates, and one
    deterministic map turns the whole block into vectors.  Regions sampled
    by rejection draw slot by slot.
    """
    if spec.truncation is None:
        return _sample_raw(spec, d, n, rngs)
    _check_feasible(spec, d)
    X = np.empty((len(rngs), n, d))
    if not _coordwise_box(spec, d):
        for rng, slot in zip(rngs, X):
            _sample_reject_vectors(spec, d, rng, slot)
        return X
    for rng, slot in zip(rngs, X):
        rng.random(out=slot)
    # loc + scale * G^-1(a + w U), computed in place.  Clipping keeps a
    # round-off past the box edge (tan(arctan(5)) can land one ulp outside)
    # inside the support; the array method skips np.clip's dispatch.
    lo, hi, loc, scale, a, w, icdf = _box_inverse_cdf(spec, d)
    X *= w
    X += a
    icdf(X, out=X)
    X *= scale
    X += loc
    return X.clip(lo, hi, out=X)


def sample_context_set(spec: DistributionSpec, d: int, K: int,
                       rngs: list[np.random.Generator]) -> np.ndarray:
    """Draw the K per-arm context vectors of one round for each of R
    replications: the (R, K, d) array whose slot r equals, byte for byte, the
    vectors drawn from rngs[r] alone.

    Arms are always drawn independently; a gaussian spec's rho correlates
    coordinates within each arm's vector.
    """
    d = resolve_dim(spec, d)
    if K < 1:
        raise ValueError("K must be >= 1")
    X = _sample_block(spec, d, int(K), rngs)
    if not np.isfinite(X).all():
        raise ValueError("context vectors must be finite")
    return X


# ---------------------------------------------------------------------------
# Log densities and gradients


def log_density(spec: DistributionSpec, X) -> np.ndarray:
    """log f at each row of the (n, d) array X, exact for the base density;
    truncation adds an unevaluated normalization constant (irrelevant to
    gradients and ratios)."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if spec.truncation is not None and not np.all(spec.truncation.contains(X)):
        raise OutOfSupportError("point outside the truncation region")
    if spec.kind == "gaussian":
        mean, C, L, Cinv, _ = _gauss_resolved(spec, d)
        delta = X - mean
        quad = np.einsum("ij,ij->i", delta @ Cinv, delta)
        logdet = 2.0 * np.sum(np.log(np.diagonal(L)))
        return -0.5 * (quad + d * math.log(2.0 * math.pi) + logdet)
    if spec.kind == "laplace":
        loc, scale = _vec(spec.loc, d), _vec(spec.scale, d)
        return -np.sum(np.abs(X - loc) / scale + np.log(2.0 * scale), axis=1)
    if spec.kind == "uniform_ball":
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms > spec.radius):
            raise OutOfSupportError("point outside the ball")
        log_vol = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0) \
            + d * math.log(spec.radius)
        return np.full(n, -log_vol)
    if spec.kind == "exponential":
        if np.any(X < 0):
            raise OutOfSupportError("exponential support is the nonnegative orthant")
        rate = _vec(spec.rate, d)
        return float(np.sum(np.log(rate))) - X @ rate
    if spec.kind == "student_t":
        v = spec.df
        const = math.lgamma(0.5 * (v + 1.0)) - math.lgamma(0.5 * v) \
            - 0.5 * math.log(v * math.pi)
        return d * const - 0.5 * (v + 1.0) * np.sum(np.log1p(X * X / v), axis=1)
    loc, scale = _vec(spec.loc, d), _vec(spec.scale, d)
    z = (X - loc) / scale
    return -np.sum(np.log(math.pi * scale) + np.log1p(z * z), axis=1)


def grad_log_density(spec: DistributionSpec, X) -> np.ndarray:
    """Analytic gradient of log f at each row of the (n, d) array X; rows
    must be interior points, and truncation leaves the gradient unchanged."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if spec.truncation is not None and not np.all(spec.truncation.contains(X)):
        raise OutOfSupportError("point outside the truncation region")
    if spec.kind == "gaussian":
        mean, _, _, Cinv, _ = _gauss_resolved(spec, d)
        return -(X - mean) @ Cinv
    if spec.kind == "laplace":
        loc, scale = _vec(spec.loc, d), _vec(spec.scale, d)
        delta = X - loc
        if np.any(np.abs(delta) < KINK_TOL):
            raise DegenerateInputError("laplace log density is not differentiable at its location")
        return -np.sign(delta) / scale
    if spec.kind == "uniform_ball":
        if np.any(np.linalg.norm(X, axis=1) >= spec.radius):
            raise OutOfSupportError("gradient defined on the open ball only")
        return np.zeros_like(X)
    if spec.kind == "exponential":
        if np.any(X <= 0):
            raise OutOfSupportError("gradient defined on the open positive orthant only")
        return np.broadcast_to(-_vec(spec.rate, d), X.shape).copy()
    if spec.kind == "student_t":
        v = spec.df
        return -(v + 1.0) * X / (v + X * X)
    loc, scale = _vec(spec.loc, d), _vec(spec.scale, d)
    delta = X - loc
    return -2.0 * delta / (scale * scale + delta * delta)


# ---------------------------------------------------------------------------
# LAC envelopes


@dataclass(frozen=True)
class LacFunction:
    """Non-decreasing gradient envelope L(r) = a1 + a2 * r**alpha."""

    a1: float
    a2: float
    alpha: float

    def __post_init__(self):
        if self.a1 < 0 or self.a2 < 0 or self.alpha < 0:
            raise ValueError("envelope coefficients must be non-negative")

    def __call__(self, r):
        return self.a1 + self.a2 * np.asarray(r, dtype=float) ** self.alpha


def lac_function(spec: DistributionSpec, d: int | None = None) -> LacFunction:
    """Gradient envelope of the spec.

    Truncated specs get the constant envelope L(R_inf) evaluated at the sup
    norm radius of the region (the gradient inside the region is the base
    gradient).  Non-diagonal gaussians use the row-sum bound
    max_i ||Sigma^-1 row i||_1 in place of 4 / lambda_min(Sigma).
    """
    if spec.truncation is not None:
        base = lac_function(replace(spec, truncation=None), d)
        return LacFunction(float(base(spec.truncation.sup_norm_radius())), 0.0, 0.0)
    if spec.kind == "gaussian":
        if pinned_dim(spec) is not None or spec.rho != 0.0:
            dd = resolve_dim(spec, d)
        else:
            dd = 1  # fully scalar spec: envelope is dimension-free
        mean, C, _, Cinv, diagonal = _gauss_resolved(spec, dd)
        mu_inf = float(np.max(np.abs(mean)))
        if diagonal:
            m = 4.0 / float(np.min(np.diagonal(C)))
        else:
            m = float(np.max(np.sum(np.abs(Cinv), axis=1)))
        return LacFunction(m * mu_inf, m, 1.0)
    if spec.kind == "laplace":
        return LacFunction(float(np.max(1.0 / np.asarray(spec.scale))), 0.0, 0.0)
    if spec.kind == "uniform_ball":
        return LacFunction(1.0, 0.0, 0.0)
    if spec.kind == "exponential":
        return LacFunction(float(np.max(np.asarray(spec.rate))), 0.0, 0.0)
    if spec.kind == "student_t":
        return LacFunction((spec.df + 1.0) / (2.0 * math.sqrt(spec.df)), 0.0, 0.0)
    return LacFunction(float(np.max(1.0 / np.asarray(spec.scale))), 0.0, 0.0)


# ---------------------------------------------------------------------------
# Numerical certification


@dataclass
class LacCheckReport:
    """Outcome of verify_lac: envelope ratio and gradient cross-check.

    `passed` is the envelope inequality; `gradient_check_passed` flags the
    analytic-vs-finite-difference agreement separately, so an implementation
    defect is distinguishable from an envelope violation.
    """

    passed: bool
    max_ratio: float
    worst_point: np.ndarray | None
    gradient_check_passed: bool
    max_gradient_err: float
    n_points: int
    n_fd_points: int
    n_skipped: int
    lac: LacFunction


def _mode_center(spec: DistributionSpec, d: int) -> np.ndarray:
    if spec.kind == "gaussian":
        return _vec(spec.mean, d).copy()
    if spec.kind in ("laplace", "cauchy"):
        return _vec(spec.loc, d).copy()
    if spec.kind == "exponential":
        return np.full(d, 0.5)  # interior stand-in; the density mode sits on the boundary
    return np.zeros(d)


def _mode_grid(spec: DistributionSpec, d: int) -> np.ndarray:
    """Deterministic probe points near the density mode, filtered to the interior."""
    center = _mode_center(spec, d)
    dirs = []
    for j in range(min(d, 5)):
        e = np.zeros(d)
        e[j] = 1.0
        dirs.extend([e, -e])
    ones = np.ones(d) / math.sqrt(d)
    dirs.extend([ones, -ones])
    pts = [center + delta * u
           for delta in (1e-3, 1e-2, 1e-1, 0.5, 1.0)
           for u in dirs]
    pts.append(center)
    X = np.asarray(pts)
    keep = _interior_mask(spec, X, margin=0.0)
    return X[keep]


def _interior_mask(spec: DistributionSpec, X: np.ndarray, margin: float) -> np.ndarray:
    """Rows at which the gradient is defined, with `margin` slack to boundaries."""
    keep = np.ones(X.shape[0], dtype=bool)
    d = X.shape[1]
    if spec.kind == "laplace":
        keep &= np.all(np.abs(X - _vec(spec.loc, d)) > max(KINK_TOL, margin), axis=1)
    elif spec.kind == "exponential":
        keep &= np.all(X > max(KINK_TOL, margin), axis=1)
    elif spec.kind == "uniform_ball":
        keep &= np.linalg.norm(X, axis=1) < spec.radius - max(KINK_TOL, margin)
    if spec.truncation is not None:
        keep &= spec.truncation.contains(X, margin=margin)
    return keep


def verify_lac(spec: DistributionSpec, n_samples: int, tol: float,
               rng: np.random.Generator, d: int | None = None) -> LacCheckReport:
    """Sample points, check ||grad log f||_inf <= (1 + tol) * L(||x||_inf),
    and cross-check analytic gradients against central finite differences.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    d = resolve_dim(spec, d)
    X = np.vstack([_sample_block(spec, d, int(n_samples), (rng,))[0],
                   _mode_grid(spec, d)])
    n_total = X.shape[0]
    keep = _interior_mask(spec, X, margin=0.0)
    n_skipped = int(n_total - keep.sum())
    X = X[keep]

    lac = lac_function(spec, d)
    G = grad_log_density(spec, X)
    g_inf = np.abs(G).max(axis=1)
    envelope = np.asarray(lac(np.abs(X).max(axis=1)), dtype=float)
    ratio = np.zeros_like(g_inf)
    pos = envelope > 0
    ratio[pos] = g_inf[pos] / envelope[pos]
    ratio[~pos] = np.where(g_inf[~pos] <= 1e-12, 0.0, np.inf)
    worst = int(np.argmax(ratio))
    max_ratio = float(ratio[worst])

    h = 1e-5
    fd_keep = _interior_mask(spec, X, margin=10.0 * h)
    Xfd = X[fd_keep]
    fd = np.empty_like(Xfd)
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        fd[:, j] = (log_density(spec, Xfd + step)
                    - log_density(spec, Xfd - step)) / (2.0 * h)
    Gfd = G[fd_keep]
    denom = np.maximum(1.0, np.abs(Gfd).max(axis=1))
    errs = np.abs(Gfd - fd).max(axis=1) / denom
    max_err = float(errs.max()) if errs.size else 0.0

    return LacCheckReport(
        passed=bool(max_ratio <= 1.0 + tol),
        max_ratio=max_ratio,
        worst_point=X[worst].copy(),
        gradient_check_passed=bool(max_err <= 1e-4),
        max_gradient_err=max_err,
        n_points=int(X.shape[0]),
        n_fd_points=int(Xfd.shape[0]),
        n_skipped=n_skipped,
        lac=lac,
    )


def truncate(spec: DistributionSpec, region: Region) -> DistributionSpec:
    """Condition the spec on the region; the envelope collapses to L(R_inf)."""
    if not isinstance(region, Region):
        raise ValueError("region must be a Region")
    if spec.truncation is not None:
        raise ValueError("spec is already truncated")
    new = replace(spec, truncation=region)
    pin = pinned_dim(new)
    if pin is not None:
        _check_feasible(new, pin)  # eager feasibility probe when the dim is known
    return new


@dataclass
class DecayCheckReport:
    """Outcome of decay_rate_check: minimal observed log-slack over pairs."""

    passed: bool
    min_slack: float
    rate_bound: float
    n_pairs: int


def decay_rate_check(spec: DistributionSpec, region: Region | None,
                     n_pairs: int, rng: np.random.Generator,
                     d: int | None = None, tol: float = 1e-9) -> DecayCheckReport:
    """Check f(x1)/f(x2) >= exp(-M ||x1 - x2||_2) * (1 - tol) on region pairs,
    with M = sqrt(d) * L(R_inf).  Slack is measured in log space.
    """
    if region is None:
        region = spec.truncation
    if region is None:
        raise ValueError("a bounded region is required")
    if spec.truncation is None:
        sampler = truncate(spec, region)
    elif spec.truncation is region or spec.truncation == region:
        sampler = spec
    else:
        raise ValueError("spec truncation conflicts with the requested region")
    d = resolve_dim(sampler, d)
    n_pairs = int(n_pairs)
    X1 = _sample_block(sampler, d, n_pairs, (rng,))[0]
    X2 = _sample_block(sampler, d, n_pairs, (rng,))[0]
    ld1 = log_density(sampler, X1)
    ld2 = log_density(sampler, X2)
    lac = lac_function(sampler, d)
    M = math.sqrt(d) * float(lac(region.sup_norm_radius()))
    dist = np.linalg.norm(X1 - X2, axis=1)
    slack = M * dist - np.abs(ld1 - ld2)  # covers both orientations of each pair
    min_slack = float(slack.min())
    return DecayCheckReport(
        passed=bool(min_slack >= math.log1p(-tol)),
        min_slack=min_slack,
        rate_bound=M,
        n_pairs=n_pairs,
    )


# ---------------------------------------------------------------------------
# Config-block serialization


def _fmt_param(v) -> str:
    """A scalar as its repr, a vector comma-separated; a one-element vector
    keeps a trailing comma so that it parses back as a vector."""
    if np.ndim(v) == 0:
        return repr(float(v))
    text = ",".join(repr(float(x)) for x in np.asarray(v).ravel())
    return text + "," if np.size(v) == 1 else text


def _parse_param(s: str):
    parts = [p for p in s.split(",") if p.strip()]
    if len(parts) == 1 and "," not in s:
        return float(parts[0])
    return np.array([float(p) for p in parts])


def _fmt_region(region: Region) -> str:
    if region.kind == "ball":
        return f"ball:{region.radius!r}"
    return f"box:{_fmt_param(region.lo)}:{_fmt_param(region.hi)}"


def _parse_region(s: str) -> Region:
    parts = s.split(":")
    if parts[0] == "ball" and len(parts) == 2:
        return ball(float(parts[1]))
    if parts[0] == "box" and len(parts) == 3:
        return box(_parse_param(parts[1]), _parse_param(parts[2]))
    raise ValueError(f"unparseable region {s!r} (expected ball:R or box:lo:hi)")


def spec_to_config(spec: DistributionSpec) -> dict[str, str]:
    """Flat key-value block describing the spec (round-trips exactly)."""
    block = {"kind": spec.kind}
    for name in PARAMS[spec.kind]:
        v = getattr(spec, name)
        if name == "cov":
            if np.ndim(v) == 2:
                block["cov_matrix"] = ";".join(_fmt_param(row) for row in v)
            elif np.ndim(v) == 1:
                block["cov_diag"] = _fmt_param(v)
            else:
                block["var"] = _fmt_param(v)
        elif name != "rho" or v != 0.0:
            block[name] = _fmt_param(v)
    if spec.truncation is not None:
        block["truncation"] = _fmt_region(spec.truncation)
    return block


def spec_from_config(block) -> DistributionSpec:
    """Inverse of spec_to_config; unknown keys raise."""
    block = dict(block)
    try:
        kind = block.pop("kind")
    except KeyError:
        raise ValueError("spec block needs a 'kind' key") from None
    if kind not in PARAMS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    trunc = block.pop("truncation", None)
    region = _parse_region(trunc) if trunc is not None else None
    kwargs = {}
    for name in PARAMS[kind]:
        if name == "cov":
            if "cov_matrix" in block:
                rows = [np.atleast_1d(_parse_param(r)) for r in block.pop("cov_matrix").split(";")]
                kwargs["cov"] = np.vstack(rows)
            elif "cov_diag" in block:
                kwargs["cov"] = np.atleast_1d(_parse_param(block.pop("cov_diag")))
            elif "var" in block:
                kwargs["cov"] = float(block.pop("var"))
        elif name in block:
            kwargs[name] = _parse_param(block.pop(name))
        elif name == "df":
            raise ValueError("student_t spec needs a 'df' key")
    if block:
        raise ValueError(f"unknown spec keys: {sorted(block)}")
    return DistributionSpec(kind, truncation=region, **kwargs)
