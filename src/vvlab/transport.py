"""Wasserstein distances between discrete measures on the torus.

:func:`distance` is the one entry point for experiment runs: it selects the
exact or the Sinkhorn route by name. The routes behind it are cross-checked
against each other:

* an exact linear-programming solver (SciPy's HiGHS, imported on first use)
  for supports of up to 4096 atoms, solved by column generation: the LP runs
  on a sparse set of active pairs and the duals price the full cost matrix
  until no pair can lower the cost (the shortlist idea of Gottschlich &
  Schuhmacher, 2014),
* a brute-force assignment enumeration used as the test oracle,
* a Sinkhorn iteration with epsilon-scaling, debiased into the Sinkhorn
  divergence (Feydy et al., AISTATS 2019). It iterates on scalings u, v of a
  stabilised Gibbs kernel, one exponential per epsilon-level, and absorbs the
  scalings into the dual potentials whenever they grow or shrink too far
  (Schmitzer, SISC 2019). It has one stopping rule, SINKHORN_TOL within
  SINKHORN_MAX_ITER iterations per epsilon-level. Its self-terms depend on one
  measure each, so every measure memoises its own.

Signed fields enter through :func:`split_signed`; measures are unnormalized
(arbitrary equal total mass), matching the mass-factor in the W1 <= sqrt(m) W2
ordering that the tests exercise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from vvlab.fields import ScalarField2D, hm1_norm, norms, torus_delta

MASS_RTOL = 1e-8
MASS_FLOOR_RTOL = 1e-12
BRUTE_FORCE_MAX_ATOMS = 8  # m! assignments are enumerated
NEIGHBOURS = 8  # nearest partners per atom to start; entering pairs per row/column
PRICING_RTOL = 1e-12  # reduced-cost threshold, relative to the largest cost
# Stopping rule of wasserstein_sinkhorn: the relative marginal violation per
# epsilon-level. On the short_time benchmark workload a tol of 1e-4 moves W2 by
# 6e-5 and W1 by 1.4e-5 relative, far below the top-k support truncation error,
# and makes the whole run 1.7 times slower (0.80 s -> 1.34 s, best of 4, 2 cores).
SINKHORN_MAX_ITER = 20000
SINKHORN_TOL = 1e-3
# Sinkhorn scalings outside [1/SCALING_BOUND, SCALING_BOUND] are absorbed into
# the potentials (Schmitzer, SISC 2019), so the kernel never over- or underflows
SCALING_BOUND = 1e50


class TransportError(ValueError):
    """Invalid transport problem (mass mismatch, negative weights, ...)."""


@dataclass
class DiscreteMeasure:
    """Weighted point cloud on the periodic square of side ``length``."""

    points: np.ndarray  # (m, 2)
    weights: np.ndarray  # (m,)
    length: float
    # Sinkhorn self-costs by (p, eps): never change a measure in place
    _self_costs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.points.shape[0] != self.weights.shape[0]:
            raise TransportError("points and weights must have equal length")
        if np.any(self.weights < 0):
            raise TransportError("weights must be nonnegative")
        self.points = np.mod(self.points, self.length)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return len(self.weights)

    def scaled(self, c: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.points.copy(), c * self.weights, self.length)


@dataclass
class TransportPlan:
    pairs: list  # (source index, target index, mass)
    cost: float
    order: int

    def marginals(self, m: int, k: int):
        row = np.zeros(m)
        col = np.zeros(k)
        for i, j, mass in self.pairs:
            row[i] += mass
            col[j] += mass
        return row, col


@dataclass
class SignedSplit:
    plus: ScalarField2D
    minus: ScalarField2D


def split_signed(omega: ScalarField2D) -> SignedSplit:
    """Pointwise positive/negative parts; plus - minus reproduces the field."""
    v = omega.values
    return SignedSplit(
        plus=ScalarField2D(omega.grid, np.maximum(v, 0.0)),
        minus=ScalarField2D(omega.grid, np.maximum(-v, 0.0)),
    )


def field_to_measure(f: ScalarField2D, max_support: int = 4096) -> DiscreteMeasure:
    """One atom per grid cell with weight h^2 f; prune tiny cells, cap the support.

    Cells below the mass floor (1e-12 of the total) are dropped; if more atoms
    remain than ``max_support``, only the heaviest are kept and the pruned mass
    is redistributed proportionally so the total mass is preserved.
    """
    if np.any(f.values < 0):
        raise TransportError(
            "field_to_measure requires a nonnegative field; use split_signed first"
        )
    h = f.grid.spacing
    w = (h * h) * f.values.ravel()
    total = float(w.sum())
    if total == 0:
        return DiscreteMeasure(np.zeros((0, 2)), np.zeros(0), f.grid.length)
    x1, x2 = f.grid.coords()
    pts = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    keep = w > MASS_FLOOR_RTOL * total
    w, pts = w[keep], pts[keep]
    if len(w) > max_support:
        order = np.argsort(w)[::-1][:max_support]
        w, pts = w[order], pts[order]
    w *= total / w.sum()
    return DiscreteMeasure(pts, w, f.grid.length)


def _check_mass_equality(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    m = max(mu.total_mass, nu.total_mass)
    if abs(mu.total_mass - nu.total_mass) > MASS_RTOL * max(m, 1e-300):
        raise TransportError(
            f"measures must have the same total mass "
            f"({mu.total_mass:.12g} vs {nu.total_mass:.12g})"
        )
    if mu.length != nu.length:
        raise TransportError("measures live on tori of different side lengths")


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int) -> np.ndarray:
    """Pairwise torus distances to the power p."""
    dx = torus_delta(mu.points[:, None, 0], nu.points[None, :, 0], mu.length)
    dy = torus_delta(mu.points[:, None, 1], nu.points[None, :, 1], mu.length)
    d = np.sqrt(dx * dx + dy * dy)
    return d if p == 1 else d ** p


def _check_order(p: int) -> None:
    if p not in (1, 2):
        raise TransportError(f"only p in {{1, 2}} is supported, got p={p}")


def wasserstein_exact(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p: int = 2
) -> tuple[float, TransportPlan]:
    """Exact optimal transport by column generation over the full cost matrix.

    The LP is solved on a sparse set of active pairs: each atom's nearest
    partners plus the support of a feasible corner plan. The restricted duals
    then price every pair; the most negative reduced costs of each row and
    column join the active set and the LP is solved again. When no pair prices
    out, the duals are feasible for the full LP, so by LP duality the
    restricted optimum is the optimum over all m*k pairs.
    """
    _check_order(p)
    _check_mass_equality(mu, nu)
    m, k = len(mu), len(nu)
    if m + k > 4096:
        raise TransportError(
            f"combined support {m + k} exceeds the exact-solver limit 4096; "
            "use wasserstein_sinkhorn"
        )
    if m == 0 or k == 0:
        return 0.0, TransportPlan(pairs=[], cost=0.0, order=p)
    C = cost_matrix(mu, nu, p)
    # normalize to unit mass: tiny atom weights otherwise trip HiGHS presolve
    mass = mu.total_mass
    a, b = mu.weights / mass, nu.weights / mass
    active = _smallest_per_line(C) | _corner_support(mu, nu)
    tol = PRICING_RTOL * max(float(C.max()), 1e-300)
    while True:
        idx = np.flatnonzero(active)
        x, duals = _solve_restricted(C.ravel()[idx], idx // k, idx % k, a, b)
        # the dropped last column constraint carries potential 0
        f, g = duals[:m], np.append(duals[m:], 0.0)
        reduced = C - f[:, None] - g[None, :]
        reduced[active] = np.inf
        entering = _smallest_per_line(reduced) & (reduced < -tol)
        if not entering.any():
            break
        active |= entering
    x *= mass
    cost = float(np.sum(x * C.ravel()[idx]))
    nz = np.flatnonzero(x > 1e-14 * max(mu.total_mass, 1e-300))
    pairs = [(int(idx[n] // k), int(idx[n] % k), float(x[n])) for n in nz]
    dist = cost ** (1.0 / p)
    return dist, TransportPlan(pairs=pairs, cost=cost, order=p)


def _smallest_per_line(M: np.ndarray) -> np.ndarray:
    """Mask of the NEIGHBOURS smallest entries of every row and every column."""
    m, k = M.shape
    if k <= NEIGHBOURS or m <= NEIGHBOURS:
        return np.ones((m, k), dtype=bool)
    mask = np.zeros((m, k), dtype=bool)
    rows, cols = np.arange(m)[:, None], np.arange(k)[None, :]
    mask[rows, np.argpartition(M, NEIGHBOURS - 1, axis=1)[:, :NEIGHBOURS]] = True
    mask[np.argpartition(M, NEIGHBOURS - 1, axis=0)[:NEIGHBOURS], cols] = True
    return mask


def _corner_support(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Mask of the north-west-corner plan with both supports in Hilbert-curve order.

    The plan is the quantile coupling of the two orders: each segment of the
    unit mass between cumulative-weight breakpoints is one entry, so the mask
    holds a feasible plan of at most m + k - 1 pairs. The curve order keeps
    those pairs spatially close, which keeps the first duals sensible.
    """
    oa, ob = _hilbert_order(mu), _hilbert_order(nu)
    ca = np.cumsum(mu.weights[oa])[:-1] / mu.total_mass
    cb = np.cumsum(nu.weights[ob])[:-1] / nu.total_mass
    starts = np.concatenate([[0.0], ca, cb])
    mask = np.zeros((len(mu), len(nu)), dtype=bool)
    mask[oa[np.searchsorted(ca, starts, side="right")],
         ob[np.searchsorted(cb, starts, side="right")]] = True
    return mask


def _hilbert_order(meas: DiscreteMeasure) -> np.ndarray:
    """Atom indices sorted by position along a Hilbert curve through the square."""
    n = 1 << 16  # curve resolution per side; d < n^2 fits in int64
    q = np.minimum((meas.points / meas.length * n).astype(np.int64), n - 1)
    x, y = q[:, 0], q[:, 1]
    d = np.zeros(len(q), dtype=np.int64)
    s = n // 2
    while s > 0:
        rx = (x & s) > 0
        ry = (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate the quadrant so the curve enters and leaves it in order
        flip = rx & ~ry
        x, y = np.where(flip, n - 1 - x, x), np.where(flip, n - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s //= 2
    return np.argsort(d, kind="stable")


def _solve_restricted(c, i, j, a, b):
    """Transport LP on the pairs (i, j); returns the plan and the equality duals."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    m, k = len(a), len(b)
    # row marginals (m) plus column marginals (k, last dropped as redundant)
    var = np.arange(len(c))
    sel = j < k - 1
    a_eq = sp.csc_matrix(
        (np.ones(len(c) + sel.sum()), (np.concatenate([i, m + j[sel]]),
                                       np.concatenate([var, var[sel]]))),
        shape=(m + k - 1, len(c)),
    )
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(
        c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"presolve": False},
    )
    if not res.success:
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise TransportError(f"exact transport LP failed: {res.message}")
    return res.x, res.eqlin.marginals


def wasserstein_brute_force(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int = 2) -> float:
    """Exhaustive assignment enumeration; equal-weight equal-size instances only.

    Independent oracle for :func:`wasserstein_exact` on <= BRUTE_FORCE_MAX_ATOMS atoms.
    """
    _check_order(p)
    _check_mass_equality(mu, nu)
    m = len(mu)
    if m != len(nu) or m > BRUTE_FORCE_MAX_ATOMS:
        raise TransportError(f"brute force needs equal sizes, <= {BRUTE_FORCE_MAX_ATOMS} atoms")
    if m == 0:
        return 0.0
    w0 = mu.weights[0]
    if not (np.allclose(mu.weights, w0) and np.allclose(nu.weights, w0)):
        raise TransportError("brute force requires equal weights")
    C = cost_matrix(mu, nu, p)
    idx = np.arange(m)
    best = min(float(C[idx, perm].sum()) for perm in itertools.permutations(range(m)))
    return (w0 * best) ** (1.0 / p)


def _sinkhorn_potentials(a, b, C, eps, f, g, mass):
    """Balanced Sinkhorn at fixed eps in the scaling domain; returns (f, g, violation).

    The plan is u_i K_ij v_j with the stabilised kernel K = exp((f + g - C) / eps),
    built once from the potentials on entry. Each iteration is two matrix-vector
    products; a scaling that leaves [1/SCALING_BOUND, SCALING_BOUND] is absorbed
    into its potential and the kernel is rebuilt.
    """
    K = _gibbs_kernel(f, g, C, eps)
    u, v = np.ones(len(a)), np.ones(len(b))
    Kv = K.sum(axis=1)
    viol = math.inf
    # an underflowed kernel line gives a zero, infinite or NaN scaling, which
    # _in_bounds turns into a TransportError
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(SINKHORN_MAX_ITER):
            u = a / Kv
            v = b / np.vecmat(u, K)
            if not (_in_bounds(u) and _in_bounds(v)):
                f, g = f + eps * np.log(u), g + eps * np.log(v)
                K = _gibbs_kernel(f, g, C, eps)
                u, v = np.ones(len(a)), np.ones(len(b))
            Kv = np.matvec(K, v)
            # row-marginal violation of the plan (columns are exact after the v-update)
            viol = float(np.sum(np.abs(u * Kv - a))) / mass
            if viol < SINKHORN_TOL:
                break
    return f + eps * np.log(u), g + eps * np.log(v), viol


def _gibbs_kernel(f, g, C, eps):
    return np.exp((f[:, None] + g[None, :] - C) / eps)


def _in_bounds(s: np.ndarray) -> bool:
    """Whether every scaling lies in [1/SCALING_BOUND, SCALING_BOUND]; raises on a
    zero, infinite or NaN one (a kernel row or column sum that underflowed)."""
    lo, hi = s.min(), s.max()
    if 1.0 / SCALING_BOUND <= lo and hi <= SCALING_BOUND:
        return True
    if not (lo > 0 and hi < math.inf):
        raise TransportError(
            "Sinkhorn kernel underflow: a scaling is zero or not finite "
            f"(range [{lo:.3e}, {hi:.3e}])"
        )
    return False


def _sinkhorn_cost(mu, nu, C, eps_target):
    """Primal transport cost <pi, C> with an epsilon-scaling schedule."""
    mass = mu.total_mass
    eps = max(float(C.max()), eps_target)
    # atoms of zero weight carry no plan mass; the schedule still starts at max C
    rows, cols = mu.weights > 0, nu.weights > 0
    a, b = mu.weights[rows], nu.weights[cols]
    if len(a) == 0 or len(b) == 0:
        return 0.0
    if not (rows.all() and cols.all()):
        C = C[np.ix_(rows, cols)]
    f = np.zeros(len(a))
    g = np.zeros(len(b))
    while True:
        f, g, viol = _sinkhorn_potentials(a, b, C, eps, f, g, mass)
        if eps <= eps_target:
            break
        eps = max(eps * 0.5, eps_target)
    if viol >= SINKHORN_TOL:
        raise TransportError(
            f"Sinkhorn did not converge: marginal violation {viol:.3e} >= tol "
            f"{SINKHORN_TOL:.1e} after {SINKHORN_MAX_ITER} iterations at eps={eps:.3e}"
        )
    log_pi = (f[:, None] + g[None, :] - C) / eps
    pi = np.exp(log_pi)
    return float(np.sum(pi * C))


def wasserstein_sinkhorn(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p: int = 2, epsilon: float = 1e-3
) -> float:
    """Debiased entropic transport distance (Sinkhorn divergence form).

    The debiasing OT(mu,nu) - (OT(mu,mu) + OT(nu,nu))/2 makes the distance of a
    measure to itself vanish identically. epsilon is relative to the squared
    domain diameter scale via the cost maximum handled by the scaling schedule.
    """
    _check_order(p)
    if epsilon <= 0:
        raise TransportError("epsilon must be > 0")
    _check_mass_equality(mu, nu)
    if len(mu) == 0 or len(nu) == 0:
        return 0.0
    cost_ab = _sinkhorn_cost(mu, nu, cost_matrix(mu, nu, p), epsilon)
    cost_aa = _self_cost(mu, p, epsilon)
    cost_bb = _self_cost(nu, p, epsilon)
    div = max(cost_ab - 0.5 * (cost_aa + cost_bb), 0.0)
    return div ** (1.0 / p)


def _self_cost(meas: DiscreteMeasure, p, eps) -> float:
    """Sinkhorn cost of ``meas`` against itself, memoised on the measure."""
    key = (p, eps)
    if key not in meas._self_costs:
        C = cost_matrix(meas, meas, p)
        meas._self_costs[key] = _sinkhorn_cost(meas, meas, C, eps)
    return meas._self_costs[key]


def distance(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p: int, method: str, epsilon: float
) -> float:
    """W_p of two equal-mass measures: ``method`` "exact" is :func:`wasserstein_exact`,
    "sinkhorn" the debiased :func:`wasserstein_sinkhorn` at ``epsilon``."""
    if method == "exact":
        return wasserstein_exact(mu, nu, p=p)[0]
    if method == "sinkhorn":
        return wasserstein_sinkhorn(mu, nu, p=p, epsilon=epsilon)
    raise TransportError(f"unknown transport method {method!r}")


def w1_dual(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[float, np.ndarray]:
    """Kantorovich dual: maximize sum (mu - nu) zeta over 1-Lipschitz zeta.

    The potential lives on the merged support; the Lipschitz constraint is
    imposed on every support pair, which certifies the returned value as a
    lower bound on W1. Returns (bound, potential on merged support).
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    _check_mass_equality(mu, nu)
    pts = np.vstack([mu.points, nu.points])
    coef = np.concatenate([mu.weights, -nu.weights])
    m = len(pts)
    if m == 0:
        return 0.0, np.zeros(0)
    merged = DiscreteMeasure(pts, np.abs(coef), mu.length)
    D = cost_matrix(merged, merged, 1)
    ii, jj = np.nonzero(~np.eye(m, dtype=bool))
    n_con = len(ii)
    data = np.concatenate([np.ones(n_con), -np.ones(n_con)])
    rows = np.concatenate([np.arange(n_con), np.arange(n_con)])
    cols = np.concatenate([ii, jj])
    a_ub = sp.coo_matrix((data, (rows, cols)), shape=(n_con, m)).tocsr()
    b_ub = D[ii, jj]
    # gauge fix: zeta is defined up to a constant
    a_eq = sp.coo_matrix((np.ones(1), (np.zeros(1, int), np.zeros(1, int))), shape=(1, m))
    res = linprog(
        -coef, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[0.0],
        bounds=(None, None), method="highs",
    )
    if not res.success:
        raise TransportError(f"dual LP failed: {res.message}")
    zeta = res.x
    lip = np.max(np.abs(zeta[:, None] - zeta[None, :]) - D) if m > 1 else 0.0
    if lip > 1e-7:
        raise TransportError(f"dual potential violates the Lipschitz bound by {lip:.2e}")
    return float(coef @ zeta), zeta


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    slack: float  # rhs - lhs; negative means violation
    ok: bool


def check_order_w1_w2(mu: DiscreteMeasure, nu: DiscreteMeasure, slack_tol: float = 1e-8):
    """W1 <= mass^(1/2) W2 on exact solver outputs (Jensen ordering)."""
    w1, _ = wasserstein_exact(mu, nu, p=1)
    w2, _ = wasserstein_exact(mu, nu, p=2)
    rhs = math.sqrt(mu.total_mass) * w2
    return InequalityReport(lhs=w1, rhs=rhs, slack=rhs - w1, ok=(rhs - w1) >= -slack_tol)


def check_hm1_domination(
    f: ScalarField2D, g: ScalarField2D, rel_tol: float = 0.05, max_support: int = 2000
):
    """||f - g||_{H^-1} <= max(||f||_inf, ||g||_inf)^(1/2) W2(f, g) through the
    full discrete pipeline (field -> measure -> exact transport)."""
    if np.any(f.values < 0) or np.any(g.values < 0):
        raise TransportError("domination check requires nonnegative fields")
    diff = ScalarField2D(f.grid, f.values - g.values)
    lhs = hm1_norm(diff)
    mu = field_to_measure(f, max_support=max_support)
    nu = field_to_measure(g, max_support=max_support)
    w2, _ = wasserstein_exact(mu, nu, p=2)
    rhs = math.sqrt(max(norms(f).linf, norms(g).linf)) * w2
    ok = lhs <= rhs * (1.0 + rel_tol) + 1e-12
    return InequalityReport(lhs=lhs, rhs=rhs, slack=rhs - lhs, ok=ok)
