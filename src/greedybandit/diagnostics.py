"""Monte-Carlo estimators for the theory-side quantities.

Four constants are estimated from the context distribution alone (diversity
lambda_star, margin slope c_delta, bounded-context concentration pair
(c_star, p_star), and an empirical stand-in for the sup-norm scale), and two
checks run on recorded trajectories (sqrt(t)-consistency of the OLS error
and linear growth of the minimal Gram eigenvalue).  Every estimator reports
a Monte-Carlo standard error so thresholds can be stated in those units.
`run_diagnostics` composes `estimate_constants` (the estimators, at the
fixed Monte-Carlo sizes below) and `check_trajectory` (the checks); the
estimators need no trajectory, so a caller can run them while the episodes
run.  The report holds the estimates themselves; `format_report` reads them.

Memory: an estimator draws its (n_mc, K, d) pool as consecutive chunks of
at most _CHUNK_FLOATS float64s (4 MB; one context set when K d exceeds
that), reduces each chunk and drops it before the next is drawn, so one
chunk is resident, never the pool.  The margin of an untruncated gaussian
draws no pool: it draws each context set's K scores x_i^T theta_star as
(m, K) blocks of standard normals into one reused buffer of at most
_CHUNK_FLOATS floats, scaled by sqrt(theta_star^T C theta_star), and gets
its gaps from them (K d-dimensional draws per set become K).  Beside the
chunk stay only the reductions: diversity's (directions, d, d) second
moments (18.6 MB at d = 100), concentration's (directions, n_mc) score
maxima, and the (n_mc,) margin gaps and x_max norms.  Diversity and
concentration draw their direction set before the pool, so every direction
is scored as the pool is drawn; diversity draws its pool twice from one
seed, the second time only for the worst direction's standard error.  The
set lists the directions in the order each chunk scores them: the signed
axes e_1 .. e_d, -e_1 .. -e_d, then the sphere draws in draw order, so a
direction's row in the second moments and the score maxima is its position
in the set.  x_max squares its chunk an eighth at a time.  On d20-k20
gaussian the diversity estimator peaks at 1.3 chunks under tracemalloc,
x_max at 1.1 (2.0 when it squared the whole chunk) and the margin at 1.2
(its buffer and gaps; 1.4 when it drew the pool), and at 4x n_mc they
grow only by their (n_mc,) gaps, norms or probe values (TestMemory).  Peak
RSS on 2 vCPUs (AVX-512 Xeon, OpenBLAS 0.3.31), against one resident pool:
perfbench preset-d20 99.1 -> 71.9 MB; a --diagnostics preset run (10 reps,
T = 1000) 264.8 -> 89.9 MB on d100-k20 gaussian and 156.2 -> 81.3 MB on
d20-k20 uniform-ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contexts import DistributionSpec, _gauss_resolved, _sample_block, resolve_dim
from .env import Trajectory

# A report's Monte-Carlo sizes, which are also the estimators' floors:
# context sets for the diversity, concentration and x_max pools and for the
# margin gaps, and sphere directions (listed after the 2d signed axes).
N_MC_DIVERSITY = 10**4
N_MC_MARGIN = 10**5
N_DIRS = 32
# The concentration estimate's quantile level, its p_star.
TARGET_P = 0.9
_EPS_GRID = np.round(np.linspace(0.01, 0.10, 10), 10)
# Batches of a batch-means standard error.
_N_BATCHES = 20
# The trajectory checks' thresholds: sqrt(t) * error over rounds
# CONSISTENCY_T_MIN .. t_max stays within CONSISTENCY_MAX_RATIO times its
# median, and at least GROWTH_MIN_FRACTION of the growth window's rounds
# clear the linear floor.
CONSISTENCY_T_MIN = 100
CONSISTENCY_MAX_RATIO = 5.0
GROWTH_MIN_FRACTION = 0.95
# Float64s per chunk of a Monte-Carlo pool (4 MB): a pool is drawn and
# reduced as consecutive chunks of at most this many floats, or of one
# context set when K d exceeds it.
_CHUNK_FLOATS = 2**19


def _sample_pool(spec: DistributionSpec, d: int, K: int, n_mc: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(n_mc, K, d) stack of context sets drawn in one vectorized pass."""
    flat = _sample_block(spec, d, int(n_mc) * int(K), (rng,))[0]
    return flat.reshape(int(n_mc), int(K), d)


def _pool_chunks(spec: DistributionSpec, d: int, K: int, n_mc: int,
                 rng: np.random.Generator):
    """Yield an (n_mc, K, d) pool as consecutive _sample_pool chunks: the
    fewest chunks of at most m = max(1, _CHUNK_FLOATS // (K d)) context sets,
    their sizes differing by at most one set.  A consumer that drops each
    chunk before asking for the next, as map(f, chunks) does, holds one
    chunk at a time; a for loop's variable would keep the last chunk alive
    through the next draw.

    A family whose primitive draw is one sequential stream (every family
    but the uniform ball, drawn untruncated or in a factorizing box) yields
    chunks that concatenate to the one-shot _sample_pool byte for byte and
    leave rng where it leaves it; a gaussian map of at most
    contexts._MAP_MAX_WIDTH columns rounds every chunk's rows like the
    one-call product.
    """
    n_mc = int(n_mc)
    count = -(-n_mc // max(1, _CHUNK_FLOATS // (K * d)))
    stops = [i * n_mc // count for i in range(1, count + 1)]
    for start, stop in zip([0, *stops], stops):
        yield _sample_pool(spec, d, K, stop - start, rng)


def _batch_se(values: np.ndarray) -> float:
    """Standard error of the mean of `values` via _N_BATCHES batch means."""
    n = values.shape[0]
    m = n - n % _N_BATCHES
    chunks = values[:m].reshape(_N_BATCHES, -1).mean(axis=1)
    return float(chunks.std(ddof=1) / math.sqrt(_N_BATCHES))


def _direction_set(d: int, n_dirs: int, rng: np.random.Generator) -> np.ndarray:
    """The directions in the order _scored_blocks scores them: the signed
    axes e_1 .. e_d, -e_1 .. -e_d, then those of n_dirs unit sphere draws
    that are not axes, in draw order (at d = 1 every draw is an axis, so
    only the two axes remain)."""
    sphere = rng.standard_normal((int(n_dirs), d))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    off_axis = np.count_nonzero(sphere, axis=1) > 1
    return np.vstack([np.eye(d), -np.eye(d), sphere[off_axis]])


def _block_step(d: int) -> int:
    """Directions per scoring block: a block's scores are at most 1/8 of
    its chunk for d >= 8."""
    return max(1, d // 8)


def _reduced_scores(chunk: np.ndarray, block: np.ndarray, reduce) -> np.ndarray:
    """(B, m): reduce over arms of the scores x_i^T theta of the chunk's m
    context sets for the B directions of block, by one (B, d) @ (d, m K)
    GEMM reduced on its contiguous (B, m, K) result."""
    m, K, d = chunk.shape
    return reduce((block @ chunk.reshape(m * K, d).T).reshape(-1, m, K), axis=2)


def _scored_blocks(chunk: np.ndarray, dirs: np.ndarray, reduce):
    """Yield (j, the reduced scores of dirs[j:j + B]) over blocks of at most
    B = _block_step(d) rows of a _direction_set, each row once.  The signed
    axes, e_j in row j and -e_j in row d + j, are read off the chunk's
    coordinates: a signed axis scores an arm by one coordinate, which is
    also what the GEMM gives it, exactly, as every other term is a zero.
    The rows from 2d on are scored by _reduced_scores, one GEMM per block."""
    d = chunk.shape[2]
    step = _block_step(d)
    for j in range(0, d, step):
        coords = chunk[:, :, j:j + step]
        yield j, reduce(coords, axis=1).T
        yield d + j, reduce(-coords, axis=1).T
    for j in range(2 * d, dirs.shape[0], step):
        yield j, _reduced_scores(chunk, dirs[j:j + step], reduce)


def _second_moments(chunks, dirs: np.ndarray) -> np.ndarray:
    """(len(dirs), d, d): for each direction theta of dirs the mean over the
    chunks' context sets of x_a x_a^T, a = argmax_i x_i^T theta as
    _scored_blocks scores it."""
    n_dirs, d = dirs.shape
    M = np.zeros((n_dirs, d, d))

    def add(chunk):
        rows = np.arange(chunk.shape[0])
        for j, arms in _scored_blocks(chunk, dirs, np.argmax):
            chosen = chunk[rows, arms]
            M[j:j + len(chosen)] += chosen.mT @ chosen
        return chunk.shape[0]

    M /= sum(map(add, chunks))
    return M


def _bottom(M: np.ndarray) -> tuple[float, np.ndarray]:
    """The smallest eigenvalue of a symmetric M and its eigenvector."""
    eigvals, eigvecs = np.linalg.eigh(M)
    return float(eigvals[0]), eigvecs[:, 0].copy()


# ---------------------------------------------------------------------------
# Diversity constant


@dataclass
class DiversityEstimate:
    """Sampled minimum over directions of lambda_min(E[x_a x_a^T])."""

    value: float
    std_error: float
    worst_direction: np.ndarray
    n_dirs_used: int


def estimate_diversity_constant(spec: DistributionSpec, d: int, K: int,
                                n_mc: int, n_dirs: int,
                                rng: np.random.Generator) -> DiversityEstimate:
    """Estimate the worst-case second-moment floor of the greedily picked arm.

    For each scoring direction theta, the arm a = argmax_i x_i^T theta is
    selected in every Monte-Carlo context set and the minimal eigenvalue of
    the empirical second moment of x_a is computed; the estimate is the
    minimum over directions.  All directions share one context pool, so
    cross-direction comparisons are not washed out by sampling noise.  The
    standard error linearizes lambda_min at the bottom eigenvector v:
    batch means of (x_a^T v)^2.

    The direction set is drawn from rng first, then one seed for the pool.
    The pool is drawn chunk by chunk, twice from that seed: the first pass
    sums x_a x_a^T for every direction, the second records the worst
    direction's (x_a^T v)^2, its arms scored as the first pass scored them.
    """
    if n_mc < N_MC_DIVERSITY:
        raise ValueError(f"n_mc must be >= {N_MC_DIVERSITY}")
    if n_dirs < N_DIRS:
        raise ValueError(f"n_dirs must be >= {N_DIRS}")
    d = resolve_dim(spec, d)
    dirs = _direction_set(d, n_dirs, rng)
    seed = int(rng.integers(2**63))

    def pool():
        return _pool_chunks(spec, d, K, n_mc, np.random.default_rng(seed))

    bottoms = [_bottom(M) for M in _second_moments(pool(), dirs)]
    w = min(range(len(dirs)), key=lambda i: bottoms[i][0])  # earliest on ties
    # Score the worst direction's arms as the first pass did: a signed axis
    # exactly, by a one-row GEMM; a sphere direction by its own GEMM block.
    step = _block_step(d) if w >= 2 * d else 1
    b = w - (w - 2 * d) % step
    block, k, v = dirs[b:b + step], w - b, bottoms[w][1]

    def probe(chunk):
        arms = _reduced_scores(chunk, block, np.argmax)[k]
        return (chunk[np.arange(chunk.shape[0]), arms] @ v) ** 2

    values = np.concatenate(list(map(probe, pool())))
    return DiversityEstimate(value=bottoms[w][0], std_error=_batch_se(values),
                             worst_direction=dirs[w], n_dirs_used=dirs.shape[0])


# ---------------------------------------------------------------------------
# Margin constant


@dataclass
class MarginEstimate:
    """Through-origin slope of P[gap <= eps] over the eps grid."""

    slope: float
    slope_se: float
    degenerate: bool
    probs: np.ndarray


def _theta_vector(theta_star, d: int) -> np.ndarray:
    """theta_star as a finite (d,) float array, or a ValueError naming it."""
    theta = np.asarray(theta_star, dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"theta_star must have shape ({d},), got {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("theta_star must be finite")
    return theta


def _score_gaps(spec: DistributionSpec, theta_star: np.ndarray, K: int,
                n_mc: int, rng: np.random.Generator) -> np.ndarray:
    """(n_mc,) best-vs-runner-up gaps of an untruncated gaussian N(mu, C),
    drawn as scores rather than arm vectors.  The arms are iid, so a score
    x_i^T theta is mu^T theta + s z_i with s = |L^T theta| (C = L L^T) and z_i
    standard normal, and the shift cancels in every gap.  Each chunk is an
    (m, K) block of z drawn into one reused buffer of at most _CHUNK_FLOATS
    floats (one context set when K exceeds that), scaled by s and
    partitioned in place; rng ends where standard_normal(n_mc K) leaves it."""
    L = _gauss_resolved(spec, theta_star.shape[0])[2]
    s = float(np.linalg.norm(theta_star @ L))
    m = min(n_mc, max(1, _CHUNK_FLOATS // K))
    buf, gaps = np.empty((m, K)), np.empty(n_mc)
    for start in range(0, n_mc, m):
        z = buf[:n_mc - start]
        rng.standard_normal(out=z)
        z *= s
        z.partition((K - 2, K - 1), axis=1)
        np.subtract(z[:, K - 1], z[:, K - 2], out=gaps[start:start + len(z)])
    return gaps


def _fit_margin(gaps: np.ndarray) -> MarginEstimate:
    """The through-origin least-squares slope of P[gap <= eps] on _EPS_GRID,
    the margin condition's C_delta, with a batch-means standard error: the
    slope refitted on each of _N_BATCHES batches of the gaps in draw order."""
    eps = _EPS_GRID
    indic = gaps[:, None] <= eps[None, :]          # (n, n_eps)
    probs = indic.mean(axis=0)
    sxx = float(eps @ eps)
    m = gaps.shape[0] - gaps.shape[0] % _N_BATCHES
    batch_probs = indic[:m].reshape(_N_BATCHES, -1, eps.size).mean(axis=1)
    batch_slopes = batch_probs @ eps / sxx
    return MarginEstimate(slope=float(eps @ probs) / sxx,
                          slope_se=float(batch_slopes.std(ddof=1) / math.sqrt(_N_BATCHES)),
                          degenerate=bool(np.all(probs == 0.0)), probs=probs)


def estimate_margin_constant(spec: DistributionSpec, theta_star, d: int, K: int,
                             n_mc: int, rng: np.random.Generator) -> MarginEstimate:
    """Estimate the small-gap slope of the best-vs-runner-up score gap.

    The gap of a context set is the difference between the two largest
    values of x_i^T theta_star.  P[gap <= eps] is estimated on _EPS_GRID and a
    line through the origin is fitted, as the margin condition
    P[gap <= eps] <= C_delta eps bounds it; its slope is the margin constant,
    its standard error from batch means over the n_mc gaps.  theta_star must
    be a finite (d,) vector.

    An untruncated gaussian draws each set's K scores, not its K vectors
    (_score_gaps): n_mc K standard normals from rng.  Every other spec draws
    the (n_mc, K, d) pool chunk by chunk and takes each chunk's gaps.
    """
    if n_mc < N_MC_MARGIN:
        raise ValueError(f"n_mc must be >= {N_MC_MARGIN}")
    d = resolve_dim(spec, d)
    theta_star = _theta_vector(theta_star, d)
    if K < 2:
        raise ValueError("gap needs K >= 2")
    if spec.kind == "gaussian" and spec.truncation is None:
        return _fit_margin(_score_gaps(spec, theta_star, K, int(n_mc), rng))

    def gap(chunk):
        part = np.partition(chunk @ theta_star, (K - 2, K - 1), axis=1)
        return part[:, K - 1] - part[:, K - 2]

    gaps = np.concatenate(list(map(gap, _pool_chunks(spec, d, K, n_mc, rng))))
    return _fit_margin(gaps)


# ---------------------------------------------------------------------------
# Concentration parameters for bounded contexts


class UnboundedSupportError(ValueError):
    """Concentration parameters require a bounded context distribution."""


@dataclass
class ConcentrationEstimate:
    """Worst-direction quantile of max_i x_i^T eta, scaled by the support radius."""

    c_star: float
    p_star: float
    radius: float
    raw_c_star: float
    quantile_se: float
    n_dirs_used: int


def _maxima(chunks, dirs: np.ndarray, n_mc: int) -> np.ndarray:
    """(len(dirs), n_mc): max_i x_i^T eta over each of the chunks' context
    sets for each direction eta of dirs, as _scored_blocks scores it."""
    def reduced(chunk):
        out = np.empty((dirs.shape[0], chunk.shape[0]))
        for j, scores in _scored_blocks(chunk, dirs, np.max):
            out[j:j + len(scores)] = scores
        return out

    maxima = np.empty((dirs.shape[0], int(n_mc)))
    start = 0
    for part in map(reduced, chunks):
        maxima[:, start:start + part.shape[1]] = part
        start += part.shape[1]
    return maxima


def support_radius(spec: DistributionSpec, d: int) -> float:
    """Radius of an origin-centered l2 ball certain to contain the support."""
    bounds = []
    if spec.kind == "uniform_ball":
        bounds.append(spec.radius)
    if spec.truncation is not None:
        bounds.append(spec.truncation.l2_radius(d))
    if not bounds:
        raise UnboundedSupportError(f"{spec.kind} spec has unbounded support")
    return float(min(bounds))


def estimate_concentration_params(spec: DistributionSpec, d: int, K: int,
                                  n_mc: int, n_dirs: int, target_p: float,
                                  rng: np.random.Generator) -> ConcentrationEstimate:
    """Estimate the (c_star, p_star) pair of a bounded context distribution.

    For each unit direction eta the empirical target_p-quantile of
    max_i x_i^T eta is computed; c_star is the worst quantile divided by the
    support radius (clipped into [0, 1]; the unclipped worst ratio is kept
    in raw_c_star).  p_star equals target_p by construction.  The quantile
    standard error is read off the order-statistic window of half-width
    sqrt(p(1-p)/n) around the target rank.

    The direction set is drawn from rng first, then the pool, chunk by
    chunk, on the one pass that scores every direction.
    """
    if not 0.0 < target_p < 1.0:
        raise ValueError("target_p must lie in (0, 1)")
    if n_mc < N_MC_DIVERSITY:
        raise ValueError(f"n_mc must be >= {N_MC_DIVERSITY}")
    if n_dirs < N_DIRS:
        raise ValueError(f"n_dirs must be >= {N_DIRS}")
    d = resolve_dim(spec, d)
    R = support_radius(spec, d)
    dirs = _direction_set(d, n_dirs, rng)
    maxima = _maxima(_pool_chunks(spec, d, K, n_mc, rng), dirs, n_mc)

    half = math.sqrt(target_p * (1.0 - target_p) / n_mc)
    worst_q, worst_se = -np.inf, 0.0
    probs = [target_p, max(target_p - half, 0.0), min(target_p + half, 1.0)]
    for scores in maxima:
        q, lo, hi = np.quantile(scores, probs).tolist()
        if q > worst_q:
            worst_q, worst_se = q, 0.5 * (hi - lo)
    raw = worst_q / R
    return ConcentrationEstimate(
        c_star=float(min(max(raw, 0.0), 1.0)),
        p_star=float(target_p),
        radius=R,
        raw_c_star=float(raw),
        quantile_se=worst_se / R,
        n_dirs_used=dirs.shape[0],
    )


# ---------------------------------------------------------------------------
# Trajectory checks


@dataclass
class ConsistencyReport:
    """Boundedness of sqrt(t) * error over a time window."""

    passed: bool
    max_over_median: float
    max_ratio: float
    window: tuple[int, int]
    n_points: int


def consistency_check(trajectory: Trajectory, *, t_max: int) -> ConsistencyReport:
    """Whether sqrt(t) * ||theta_hat_t - theta_star|| over the rounds
    CONSISTENCY_T_MIN .. t_max with an estimate stays within
    CONSISTENCY_MAX_RATIO times its median."""
    t, window = trajectory.t, (CONSISTENCY_T_MIN, t_max)
    scaled = np.sqrt(t) * trajectory.est_error_l2
    arr = scaled[(t >= CONSISTENCY_T_MIN) & (t <= t_max) & ~np.isnan(scaled)]
    if not arr.size:
        return ConsistencyReport(False, math.inf, CONSISTENCY_MAX_RATIO, window, 0)
    med = float(np.median(arr))
    if arr.max() <= 1e-9:
        ratio = 1.0  # exact recovery: the whole curve is roundoff noise
    elif med == 0.0:
        ratio = math.inf
    else:
        ratio = float(arr.max() / med)
    return ConsistencyReport(passed=bool(ratio <= CONSISTENCY_MAX_RATIO),
                             max_over_median=ratio,
                             max_ratio=CONSISTENCY_MAX_RATIO,
                             window=window,
                             n_points=int(arr.size))


@dataclass
class GrowthReport:
    """Linear lower bound check on the minimal Gram eigenvalue."""

    passed: bool
    fraction: float
    min_fraction: float
    threshold_slope: float
    t0: int
    n_checked: int
    last_violation: int | None


def growth_burn_in(d: int) -> int:
    """First round of the Gram growth window: max(50, 4d).

    Sigma(t) has rank at most t, so lambda_min(Sigma(t)) = 0 for every t < d.
    For a design with second moment lambda I the minimal eigenvalue tracks
    the Marchenko-Pastur lower edge lambda (sqrt(t) - sqrt(d))^2, which
    reaches the threshold lambda t / 4 exactly at t = 4d.
    """
    return max(50, 4 * d)


def gram_growth_check(trajectory: Trajectory, lambda_star_hat: float,
                      t0: int) -> GrowthReport:
    """Fraction of rounds t >= t0 with lambda_min(Sigma(t)) >= (lambda/4) t,
    passed at GROWTH_MIN_FRACTION; production callers start the window at
    growth_burn_in(d)."""
    slope = float(lambda_star_hat) / 4.0
    t = trajectory.t
    window = t >= t0
    if not window.any():
        return GrowthReport(False, 0.0, GROWTH_MIN_FRACTION, slope, t0, 0, None)
    t = t[window]
    ok = trajectory.gram_min_eig[window] >= slope * t
    violations = t[~ok]
    frac = float(ok.mean())
    return GrowthReport(passed=bool(frac >= GROWTH_MIN_FRACTION),
                        fraction=frac,
                        min_fraction=GROWTH_MIN_FRACTION,
                        threshold_slope=slope,
                        t0=t0,
                        n_checked=int(t.size),
                        last_violation=int(violations[-1]) if violations.size else None)


def empirical_x_max(spec: DistributionSpec, d: int, K: int, n_mc: int,
                    rng: np.random.Generator) -> float:
    """Empirical 1 - 1e-4 tail quantile of the round's largest arm norm.

    A stand-in for the sup-norm scale of the context distribution; heavy
    tailed families have no finite closed-form bound, so the report labels
    this value as an empirical quantile, not a guarantee.
    """
    if n_mc < N_MC_DIVERSITY:
        raise ValueError(f"n_mc must be >= {N_MC_DIVERSITY}")
    d = resolve_dim(spec, d)

    def max_norm(chunk):
        # linalg.norm's arithmetic on eighths of the chunk, so no chunk-sized
        # square is made.
        return np.concatenate([np.sqrt(np.add.reduce(sub * sub, axis=2)).max(axis=1)
                               for sub in np.array_split(chunk, 8)])

    max_norms = np.concatenate(list(map(max_norm, _pool_chunks(spec, d, K, n_mc, rng))))
    return float(np.quantile(max_norms, 1.0 - 1e-4))


# ---------------------------------------------------------------------------
# Composite report


@dataclass
class ConstantEstimates:
    """The trajectory-free half of a report: every Monte-Carlo constant of
    the spec at dimension d (concentration is None for unbounded support)."""

    d: int
    diversity: DiversityEstimate
    margin: MarginEstimate
    concentration: ConcentrationEstimate | None
    x_max: float


@dataclass
class DiagnosticsReport:
    """The estimated constants and the trajectory checks of one experiment."""

    constants: ConstantEstimates
    growth: GrowthReport
    consistency: ConsistencyReport


def estimate_constants(spec: DistributionSpec, d: int, K: int, theta_star,
                       rng: np.random.Generator) -> ConstantEstimates:
    """Run the four estimators, each on its own child of rng (rng.spawn(4),
    in this order), so no estimate's stream depends on another's.  They need
    no trajectory, so they can run while the episodes do.  A theta_star that
    is not a finite (d,) vector is rejected before rng is spawned."""
    d = resolve_dim(spec, d)
    theta_star = _theta_vector(theta_star, d)
    div_rng, margin_rng, conc_rng, x_max_rng = rng.spawn(4)
    div = estimate_diversity_constant(spec, d, K, N_MC_DIVERSITY, N_DIRS, div_rng)
    margin = estimate_margin_constant(spec, theta_star, d, K, N_MC_MARGIN, margin_rng)
    try:
        conc = estimate_concentration_params(spec, d, K, N_MC_DIVERSITY, N_DIRS,
                                             TARGET_P, conc_rng)
    except UnboundedSupportError:
        conc = None
    x_max = empirical_x_max(spec, d, K, N_MC_DIVERSITY, x_max_rng)
    return ConstantEstimates(d=d, diversity=div, margin=margin,
                             concentration=conc, x_max=x_max)


def check_trajectory(constants: ConstantEstimates,
                     trajectory: Trajectory) -> DiagnosticsReport:
    """Check the trajectory against the estimated diversity floor."""
    return DiagnosticsReport(
        constants=constants,
        growth=gram_growth_check(trajectory, constants.diversity.value,
                                 growth_burn_in(constants.d)),
        consistency=consistency_check(trajectory, t_max=len(trajectory)))


def run_diagnostics(spec: DistributionSpec, d: int, K: int, theta_star,
                    trajectory: Trajectory, rng: np.random.Generator) -> DiagnosticsReport:
    """Estimate every constant for the spec and check the trajectory against
    the estimated diversity floor."""
    return check_trajectory(estimate_constants(spec, d, K, theta_star, rng),
                            trajectory)


def format_report(report: DiagnosticsReport) -> str:
    """Human-readable text block for the experiment's diagnostics sidecar."""
    div, margin = report.constants.diversity, report.constants.margin
    conc = report.constants.concentration
    lines = [
        "diagnostics",
        "===========",
        f"lambda_star_hat   {div.value:.6f} (se {div.std_error:.2e})",
        f"c_delta_hat       {margin.slope:.6f} (se {margin.slope_se:.2e})",
    ]
    if conc is None:
        lines.append("c_star/p_star     undefined (unbounded support)")
    else:
        lines.append(f"c_star_hat        {conc.c_star:.6f}")
        lines.append(f"p_star_hat        {conc.p_star:.6f}")
    lines.append(f"x_max_hat         {report.constants.x_max:.6f} (empirical tail quantile)")
    g = report.growth
    lines.append(
        f"gram growth       {'pass' if g.passed else 'FAIL'}: fraction {g.fraction:.4f} "
        f"(need >= {g.min_fraction:g} of the {g.n_checked} rounds t >= {g.t0} above "
        f"{g.threshold_slope:.6f}*t; "
        f"slack {g.fraction - g.min_fraction:+.4f})")
    c = report.consistency
    lines.append(
        f"sqrt(t) error     {'pass' if c.passed else 'FAIL'}: max/median "
        f"{c.max_over_median:.3f} over t in {c.window} (need <= {c.max_ratio:g}; "
        f"slack {c.max_ratio - c.max_over_median:+.3f})")
    lines.append("note: x_max_hat is the empirical 1-1e-4 tail quantile of the max "
                 "arm norm, not a closed-form bound")
    if conc is None:
        lines.append("note: concentration parameters undefined: unbounded support")
    if margin.degenerate:
        lines.append(f"note: margin degenerate: no Monte-Carlo gap fell at or below "
                     f"eps = {_EPS_GRID[-1]:g}, so c_delta_hat 0 is no slope estimate")
    return "\n".join(lines) + "\n"
