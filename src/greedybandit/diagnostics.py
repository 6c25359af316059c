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

Memory: an estimator holds one (n_mc, K, d) context pool at a time.  A
gaussian pool is mapped in place (contexts._MAP_ROWS), directions are
scored in blocks of max(1, d // 8), so a score block is at most 1/8 of the
pool for d >= 8, and row norms and margin gaps are taken chunk by chunk.
On d20-k20 gaussian each of the diversity, margin and x_max estimators
peaks at 1.13-1.16 pools under tracemalloc (2.0-2.1 when the map copied
the pool and directions were scored one by one).  The uniform-ball map and
rejection sampling still allocate pool-sized temporaries while drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contexts import DistributionSpec, _sample_block, resolve_dim
from .env import Trajectory

# A report's Monte-Carlo sizes, which are also the estimators' floors:
# context sets for the diversity, concentration and x_max pools and for the
# margin gaps, and sphere directions (the 2d signed axes are added to them).
N_MC_DIVERSITY = 10**4
N_MC_MARGIN = 10**5
N_DIRS = 32
# The concentration estimate's quantile level, its p_star.
TARGET_P = 0.9
_EPS_GRID = np.round(np.linspace(0.01, 0.10, 10), 10)

_N_BATCHES = 20
# Context sets per draw in the margin estimator: its 1e5-set pool is only
# needed for one gap per set, so it is drawn and reduced in pieces.
_MARGIN_CHUNK = 10**4


def _sample_pool(spec: DistributionSpec, d: int, K: int, n_mc: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(n_mc, K, d) stack of context sets drawn in one vectorized pass."""
    flat = _sample_block(spec, d, int(n_mc) * int(K), (rng,))[0]
    return flat.reshape(int(n_mc), int(K), d)


def _batch_se(values: np.ndarray, n_batches: int = _N_BATCHES) -> float:
    """Standard error of the mean of `values` via batch means."""
    n = values.shape[0]
    m = n - n % n_batches
    chunks = values[:m].reshape(n_batches, -1).mean(axis=1)
    return float(chunks.std(ddof=1) / math.sqrt(n_batches))


def _direction_set(d: int, n_dirs: int, rng: np.random.Generator) -> np.ndarray:
    """n_dirs unit sphere draws plus both signs of every coordinate axis,
    deduplicated (at d=1 all sphere draws collapse onto the two axes)."""
    dirs = rng.standard_normal((int(n_dirs), d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    axes = np.vstack([np.eye(d), -np.eye(d)])
    stacked = np.vstack([dirs, axes])
    _, idx = np.unique(np.round(stacked, 12), axis=0, return_index=True)
    return stacked[np.sort(idx)]


def _per_direction(pool: np.ndarray, dirs: np.ndarray, reduce):
    """Yield (theta, reduce over arms of the scores x_i^T theta) for each
    direction, as an (n,) array over the pool's context sets.

    Directions are scored in blocks of B = max(1, d // 8) by one
    (B, d) @ (d, n K) GEMM each, and reduced on the contiguous (B, n, K)
    result; for d >= 8 the score block is at most 1/8 of the pool, and it is
    released before the block's directions are handed out.
    """
    n, K, d = pool.shape
    flat = pool.reshape(n * K, d)
    step = max(1, d // 8)
    for start in range(0, dirs.shape[0], step):
        block = dirs[start:start + step]
        yield from zip(block, reduce((block @ flat.T).reshape(-1, n, K), axis=2))


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
    """
    if n_mc < N_MC_DIVERSITY:
        raise ValueError(f"n_mc must be >= {N_MC_DIVERSITY}")
    if n_dirs < N_DIRS:
        raise ValueError(f"n_dirs must be >= {N_DIRS}")
    d = resolve_dim(spec, d)
    pool = _sample_pool(spec, d, K, n_mc, rng)
    dirs = _direction_set(d, n_dirs, rng)
    n = pool.shape[0]
    rows = np.arange(n)

    best = None
    for theta, arms in _per_direction(pool, dirs, np.argmax):
        chosen = pool[rows, arms]
        M = chosen.T @ chosen / n
        eigvals, eigvecs = np.linalg.eigh(M)
        lam = float(eigvals[0])
        if best is None or lam < best[0]:
            v = eigvecs[:, 0]
            se = _batch_se((chosen @ v) ** 2)
            best = (lam, se, theta)
    lam, se, theta = best
    return DiversityEstimate(value=lam, std_error=se, worst_direction=theta,
                             n_dirs_used=dirs.shape[0])


# ---------------------------------------------------------------------------
# Margin constant


@dataclass
class MarginEstimate:
    """Through-origin slope of P[gap <= eps] over the eps grid."""

    slope: float
    slope_se: float
    intercept: float
    intercept_se: float
    degenerate: bool
    probs: np.ndarray


def estimate_margin_constant(spec: DistributionSpec, theta_star, d: int, K: int,
                             n_mc: int, rng: np.random.Generator) -> MarginEstimate:
    """Estimate the small-gap slope of the best-vs-runner-up score gap.

    The gap of a context set is the difference between the two largest
    values of x_i^T theta_star.  P[gap <= eps] is estimated on _EPS_GRID and a
    line through the origin is fitted; its slope is the margin constant.  A
    free (affine) fit provides the intercept, whose distance from zero is a
    sanity check for continuous densities.  Standard errors come from batch
    means over the Monte-Carlo pool, which is drawn in chunks of
    _MARGIN_CHUNK context sets so that only the (n_mc,) gaps are held.
    """
    if n_mc < N_MC_MARGIN:
        raise ValueError(f"n_mc must be >= {N_MC_MARGIN}")
    eps = _EPS_GRID
    theta_star = np.asarray(theta_star, dtype=float)
    d = resolve_dim(spec, d)
    if K < 2:
        raise ValueError("gap needs K >= 2")

    gaps = np.empty(int(n_mc))
    for start in range(0, gaps.size, _MARGIN_CHUNK):
        m = min(_MARGIN_CHUNK, gaps.size - start)
        chunk = _sample_pool(spec, d, K, m, rng)
        scores = chunk @ theta_star
        part = np.partition(scores, (K - 2, K - 1), axis=1)
        gaps[start:start + m] = part[:, K - 1] - part[:, K - 2]
        # Release the chunk's arrays before the next draw, which would
        # otherwise sit beside this chunk, and together: freeing the chunk
        # before the partition copy let the next draw grow the heap.
        del chunk, scores, part

    indic = gaps[:, None] <= eps[None, :]          # (n, n_eps)
    probs = indic.mean(axis=0)
    degenerate = bool(np.all(probs == 0.0))

    sxx = float(eps @ eps)
    slope = float(eps @ probs) / sxx

    # Affine fit for the intercept check.
    A = np.vstack([eps, np.ones_like(eps)]).T
    coef, *_ = np.linalg.lstsq(A, probs, rcond=None)
    intercept = float(coef[1])

    # Batch-means errors: refit per Monte-Carlo chunk.
    n = gaps.shape[0]
    m = n - n % _N_BATCHES
    chunk_probs = indic[:m].reshape(_N_BATCHES, -1, eps.size).mean(axis=1)
    chunk_slopes = chunk_probs @ eps / sxx
    chunk_coefs = np.linalg.lstsq(A, chunk_probs.T, rcond=None)[0]
    slope_se = float(chunk_slopes.std(ddof=1) / math.sqrt(_N_BATCHES))
    intercept_se = float(chunk_coefs[1].std(ddof=1) / math.sqrt(_N_BATCHES))

    return MarginEstimate(slope=slope, slope_se=slope_se, intercept=intercept,
                          intercept_se=intercept_se, degenerate=degenerate,
                          probs=probs)


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
    """
    if not 0.0 < target_p < 1.0:
        raise ValueError("target_p must lie in (0, 1)")
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1000")
    d = resolve_dim(spec, d)
    R = support_radius(spec, d)
    pool = _sample_pool(spec, d, K, n_mc, rng)
    dirs = _direction_set(d, n_dirs, rng)

    n = pool.shape[0]
    half = math.sqrt(target_p * (1.0 - target_p) / n)
    worst_q, worst_se = -np.inf, 0.0
    probs = [target_p, max(target_p - half, 0.0), min(target_p + half, 1.0)]
    for _, maxima in _per_direction(pool, dirs, np.max):
        q, lo, hi = np.quantile(maxima, probs).tolist()
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


def _scaled_error(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """(t, sqrt(t) * ||theta_hat_t - theta_star||) over rounds with an estimate."""
    scaled = np.sqrt(trajectory.t) * trajectory.est_error_l2
    known = ~np.isnan(scaled)
    return trajectory.t[known], scaled[known]


def consistency_curve(trajectory: Trajectory) -> list[tuple[int, float]]:
    """(t, sqrt(t) * ||theta_hat_t - theta_star||) for rounds with an estimate."""
    t, scaled = _scaled_error(trajectory)
    return list(zip(t.tolist(), scaled.tolist()))


@dataclass
class ConsistencyReport:
    """Boundedness of sqrt(t) * error over a time window."""

    passed: bool
    max_over_median: float
    max_ratio: float
    window: tuple[int, int]
    n_points: int


def consistency_check(trajectory: Trajectory, t_min: int = 100,
                      t_max: int = 1000, max_ratio: float = 5.0) -> ConsistencyReport:
    t, arr = _scaled_error(trajectory)
    arr = arr[(t >= t_min) & (t <= t_max)]
    if not arr.size:
        return ConsistencyReport(False, math.inf, max_ratio, (t_min, t_max), 0)
    med = float(np.median(arr))
    if arr.max() <= 1e-9:
        ratio = 1.0  # exact recovery: the whole curve is roundoff noise
    elif med == 0.0:
        ratio = math.inf
    else:
        ratio = float(arr.max() / med)
    return ConsistencyReport(passed=bool(ratio <= max_ratio),
                             max_over_median=ratio,
                             max_ratio=max_ratio,
                             window=(t_min, t_max),
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


def gram_growth_check(trajectory: Trajectory, lambda_star_hat: float, t0: int,
                      min_fraction: float = 0.95) -> GrowthReport:
    """Fraction of rounds t >= t0 with lambda_min(Sigma(t)) >= (lambda/4) t;
    production callers start the window at growth_burn_in(d)."""
    slope = float(lambda_star_hat) / 4.0
    t = trajectory.t
    window = t >= t0
    if not window.any():
        return GrowthReport(False, 0.0, min_fraction, slope, t0, 0, None)
    t = t[window]
    ok = trajectory.gram_min_eig[window] >= slope * t
    violations = t[~ok]
    frac = float(ok.mean())
    return GrowthReport(passed=bool(frac >= min_fraction),
                        fraction=frac,
                        min_fraction=min_fraction,
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
    d = resolve_dim(spec, d)
    pool = _sample_pool(spec, d, K, n_mc, rng)
    # Row norms an eighth of the pool at a time: norm squares a copy.
    max_norms = np.concatenate([np.linalg.norm(part, axis=2).max(axis=1)
                                for part in np.array_split(pool, 8)])
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
    """Run the four estimators, in this order, on one generator.  They need
    no trajectory, so they can run while the episodes do."""
    d = resolve_dim(spec, d)
    div = estimate_diversity_constant(spec, d, K, N_MC_DIVERSITY, N_DIRS, rng)
    margin = estimate_margin_constant(spec, theta_star, d, K, N_MC_MARGIN, rng)
    try:
        conc = estimate_concentration_params(spec, d, K, N_MC_DIVERSITY, N_DIRS,
                                             TARGET_P, rng)
    except UnboundedSupportError:
        conc = None
    x_max = empirical_x_max(spec, d, K, N_MC_DIVERSITY, rng)
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
        f"margin_intercept  {margin.intercept:+.6f} (se {margin.intercept_se:.2e})",
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
    return "\n".join(lines) + "\n"
