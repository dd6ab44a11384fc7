import math

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import vvlab.transport as transport
from vvlab.fields import Grid2D, ScalarField2D, hm1_norm
from vvlab.initial_data import make_initial_data
from vvlab.transport import (
    DiscreteMeasure,
    TransportError,
    check_hm1_domination,
    check_order_w1_w2,
    cost_matrix,
    field_to_measure,
    split_signed,
    w1_dual,
    wasserstein_brute_force,
    wasserstein_exact,
    wasserstein_sinkhorn,
)


def random_pair(seed, m=5, length=1.0, equal_weights=True):
    rng = np.random.default_rng(seed)
    pa = rng.uniform(0, length, size=(m, 2))
    pb = rng.uniform(0, length, size=(m, 2))
    if equal_weights:
        wa = wb = np.full(m, 1.0 / m)
    else:
        wa = rng.uniform(0.5, 1.5, size=m)
        wb = rng.uniform(0.5, 1.5, size=m)
        wb *= wa.sum() / wb.sum()
    return DiscreteMeasure(pa, wa, length), DiscreteMeasure(pb, wb, length)


class TestMeasures:
    def test_points_wrapped_into_domain(self):
        mu = DiscreteMeasure([[1.3, -0.2]], [1.0], 1.0)
        np.testing.assert_allclose(mu.points, [[0.3, 0.8]], atol=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(TransportError):
            DiscreteMeasure([[0.1, 0.1]], [-1.0], 1.0)

    def test_split_signed_reconstructs(self, grid32):
        rng = np.random.default_rng(0)
        f = ScalarField2D(grid32, rng.normal(size=(32, 32)))
        sp = split_signed(f)
        assert np.all(sp.plus.values >= 0)
        assert np.all(sp.minus.values >= 0)
        np.testing.assert_array_equal(sp.plus.values - sp.minus.values, f.values)

    def test_field_to_measure_mass(self, grid32):
        v = np.zeros((32, 32))
        v[4:8, 4:8] = 2.0
        mu = field_to_measure(ScalarField2D(grid32, v))
        assert mu.total_mass == pytest.approx(2.0 * 16 * grid32.spacing ** 2, rel=1e-12)

    def test_field_to_measure_cap_preserves_mass(self, grid32):
        rng = np.random.default_rng(1)
        f = ScalarField2D(grid32, rng.uniform(0.1, 1.0, size=(32, 32)))
        full = field_to_measure(f)
        capped = field_to_measure(f, max_support=100)
        assert len(capped) == 100
        assert capped.total_mass == pytest.approx(full.total_mass, rel=1e-12)

    def test_field_to_measure_rejects_signed(self, grid32):
        v = np.zeros((32, 32))
        v[0, 0], v[1, 1] = 1.0, -1.0
        with pytest.raises(TransportError, match="nonnegative"):
            field_to_measure(ScalarField2D(grid32, v))

    def test_pruning_perturbs_w2_weakly(self, grid32):
        # when the dropped atoms carry little mass W2 barely moves
        x1, x2 = grid32.coords()
        a = np.exp(-60 * ((x1 - 0.4) ** 2 + (x2 - 0.5) ** 2))
        b = np.roll(a, 3, axis=0)
        b *= a.sum() / b.sum()
        f, g = ScalarField2D(grid32, a), ScalarField2D(grid32, b)
        full_mu = field_to_measure(f, max_support=450)
        full_nu = field_to_measure(g, max_support=450)
        cap_mu = field_to_measure(f, max_support=180)
        cap_nu = field_to_measure(g, max_support=180)
        w_full = wasserstein_exact(full_mu, full_nu)[0]
        w_cap = wasserstein_exact(cap_mu, cap_nu)[0]
        assert w_cap == pytest.approx(w_full, rel=0.05)


class TestExactSolver:
    def test_identical_measures_zero(self):
        mu, _ = random_pair(0)
        d, plan = wasserstein_exact(mu, mu)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_two_atoms_closed_form(self):
        mu = DiscreteMeasure([[0.1, 0.5]], [1.0], 1.0)
        nu = DiscreteMeasure([[0.4, 0.5]], [1.0], 1.0)
        assert wasserstein_exact(mu, nu, p=1)[0] == pytest.approx(0.3, rel=1e-9)
        assert wasserstein_exact(mu, nu, p=2)[0] == pytest.approx(0.3, rel=1e-9)

    def test_wraparound_geodesic_used(self):
        mu = DiscreteMeasure([[0.05, 0.0]], [1.0], 1.0)
        nu = DiscreteMeasure([[0.95, 0.0]], [1.0], 1.0)
        assert wasserstein_exact(mu, nu)[0] == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [1, 2])
    def test_against_brute_force(self, seed, p):
        mu, nu = random_pair(seed, m=6)
        exact = wasserstein_exact(mu, nu, p=p)[0]
        brute = wasserstein_brute_force(mu, nu, p=p)
        assert exact == pytest.approx(brute, rel=1e-7)

    def test_plan_marginals_match_weights(self):
        mu, nu = random_pair(3, m=7, equal_weights=False)
        _, plan = wasserstein_exact(mu, nu)
        row, col = plan.marginals(len(mu), len(nu))
        np.testing.assert_allclose(row, mu.weights, rtol=1e-8)
        np.testing.assert_allclose(col, nu.weights, rtol=1e-8)

    def test_translation_invariance(self):
        mu, nu = random_pair(4, m=6, equal_weights=False)
        d0 = wasserstein_exact(mu, nu)[0]
        shift = np.array([0.37, 0.81])
        mu_shifted = DiscreteMeasure(mu.points + shift, mu.weights.copy(), mu.length)
        nu_shifted = DiscreteMeasure(nu.points + shift, nu.weights.copy(), nu.length)
        d1 = wasserstein_exact(mu_shifted, nu_shifted)[0]
        assert d1 == pytest.approx(d0, rel=1e-8)

    def test_mass_scaling_laws(self):
        # W1 is linear in mass, W2 scales like sqrt(mass)
        mu, nu = random_pair(5, m=5, equal_weights=False)
        c = 3.0
        w1 = wasserstein_exact(mu, nu, p=1)[0]
        w2 = wasserstein_exact(mu, nu, p=2)[0]
        assert wasserstein_exact(mu.scaled(c), nu.scaled(c), p=1)[0] == pytest.approx(c * w1, rel=1e-8)
        assert wasserstein_exact(mu.scaled(c), nu.scaled(c), p=2)[0] == pytest.approx(math.sqrt(c) * w2, rel=1e-8)

    def test_symmetry_and_triangle(self):
        mu, nu = random_pair(6, m=5, equal_weights=False)
        rho = DiscreteMeasure(
            np.random.default_rng(9).uniform(0, 1, size=(5, 2)),
            np.full(5, mu.total_mass / 5),
            1.0,
        )
        d_ab = wasserstein_exact(mu, nu)[0]
        d_ba = wasserstein_exact(nu, mu)[0]
        assert d_ab == pytest.approx(d_ba, rel=1e-8)
        d_ac = wasserstein_exact(mu, rho)[0]
        d_cb = wasserstein_exact(rho, nu)[0]
        assert d_ab <= d_ac + d_cb + 1e-9

    def test_tiny_weights_survive_presolve(self):
        # absolute masses around 1e-8 used to trip the LP presolve
        mu, nu = random_pair(2, m=5)
        eps = 1e-8
        d_small = wasserstein_exact(mu.scaled(eps), nu.scaled(eps), p=1)[0]
        d_unit = wasserstein_exact(mu, nu, p=1)[0]
        assert d_small == pytest.approx(eps * d_unit, rel=1e-6)

    def test_mass_mismatch_rejected(self):
        mu, nu = random_pair(0)
        with pytest.raises(TransportError, match="total mass"):
            wasserstein_exact(mu, nu.scaled(1.001))

    def test_unsupported_order_rejected(self):
        mu, nu = random_pair(0)
        with pytest.raises(TransportError, match="p="):
            wasserstein_exact(mu, nu, p=3)


def dense_lp_distance(mu, nu, p):
    """Reference: the transport LP over every one of the m*k pairs at once."""
    m, k = len(mu), len(nu)
    C = cost_matrix(mu, nu, p)
    var = np.arange(m * k)
    rows_i, cols_j = np.divmod(var, k)
    sel = cols_j < k - 1
    a_eq = sparse.coo_matrix(
        (np.ones(m * k + sel.sum()), (np.concatenate([rows_i, m + cols_j[sel]]),
                                      np.concatenate([var, var[sel]]))),
        shape=(m + k - 1, m * k),
    )
    mass = mu.total_mass
    b_eq = np.concatenate([mu.weights, nu.weights[:-1]]) / mass
    res = linprog(C.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return (mass * float(res.x @ C.ravel())) ** (1.0 / p)


def unequal_pair(seed, m, k):
    rng = np.random.default_rng(seed)
    wa = rng.uniform(0.2, 2.0, size=m)
    wb = rng.uniform(0.2, 2.0, size=k)
    wb *= wa.sum() / wb.sum()
    return (
        DiscreteMeasure(rng.uniform(0, 1, size=(m, 2)), wa, 1.0),
        DiscreteMeasure(rng.uniform(0, 1, size=(k, 2)), wb, 1.0),
    )


def count_lp_solves(monkeypatch):
    calls = []
    real = transport._solve_restricted

    def counting(c, *args):
        calls.append(len(c))
        return real(c, *args)

    monkeypatch.setattr(transport, "_solve_restricted", counting)
    return calls


def assert_matches_dense(mu, nu, p, rel=1e-9):
    d, plan = wasserstein_exact(mu, nu, p=p)
    assert d == pytest.approx(dense_lp_distance(mu, nu, p), rel=rel, abs=1e-15)
    row, col = plan.marginals(len(mu), len(nu))
    np.testing.assert_allclose(row, mu.weights, rtol=1e-8, atol=1e-14 * mu.total_mass)
    np.testing.assert_allclose(col, nu.weights, rtol=1e-8, atol=1e-14 * mu.total_mass)
    assert plan.cost == pytest.approx(d ** p, rel=1e-12)
    return d, plan


class TestColumnGeneration:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_dense_lp(self, seed, p):
        rng = np.random.default_rng(100 + seed)
        m, k = rng.choice(np.arange(30, 151), size=2, replace=False)
        mu, nu = unequal_pair(seed, m, k)
        _, plan = assert_matches_dense(mu, nu, p)
        # a basic optimal plan has at most m + k - 1 nonzero entries
        assert len(plan.pairs) <= m + k - 1

    @pytest.mark.parametrize("p", [1, 2])
    def test_single_neighbour_start_needs_pricing(self, monkeypatch, p):
        monkeypatch.setattr(transport, "NEIGHBOURS", 1)
        solves = count_lp_solves(monkeypatch)
        mu, nu = unequal_pair(7, 90, 60)
        assert_matches_dense(mu, nu, p)
        assert len(solves) >= 3
        assert solves == sorted(solves)  # the active set only grows
        assert solves[-1] < len(mu) * len(nu)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("m, k", [(1, 1), (1, 40), (40, 1), (3, 5), (5, 3)])
    def test_small_supports(self, p, m, k):
        mu, nu = unequal_pair(m * 100 + k, m, k)
        assert_matches_dense(mu, nu, p)

    @pytest.mark.parametrize("p", [1, 2])
    def test_identical_measures(self, p):
        mu, _ = unequal_pair(3, 80, 80)
        d, _ = wasserstein_exact(mu, mu, p=p)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert dense_lp_distance(mu, mu, p) == pytest.approx(0.0, abs=1e-12)

    def test_w1_lattice_with_tied_costs(self):
        # lattice-to-lattice W1 has many optimal plans and many tied costs
        side = 10
        x = (np.arange(side) + 0.5) / side
        pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        w = np.ones(side * side)
        # half a cell along x: every atom has two nearest targets at equal cost
        mu = DiscreteMeasure(pts, w, 1.0)
        nu = DiscreteMeasure(pts + [0.5 / side, 0.0], w, 1.0)
        d, _ = assert_matches_dense(mu, nu, 1)
        assert d == pytest.approx(w.sum() * 0.5 / side, rel=1e-9)
        ramp = np.linspace(1.0, 2.0, side * side)
        assert_matches_dense(
            DiscreteMeasure(pts, ramp, 1.0), DiscreteMeasure(pts, ramp[::-1].copy(), 1.0), 1
        )

    @pytest.mark.parametrize("p", [1, 2])
    def test_patch_pair_at_smoke_size(self, p):
        # the positive part of the smoke patch pair against a diffused, shifted
        # copy: 260 atoms a side, as in each exact-LP call of a smoke run
        grid = Grid2D(32, 1.0)
        plus = split_signed(
            make_initial_data("patch_pair", grid, radius=0.12, separation=0.4)
        ).plus
        k = 2 * np.pi * np.fft.fftfreq(32, 1.0 / 32)
        heat = np.exp(-0.03 * 0.05 * (k[:, None] ** 2 + k[None, :] ** 2))
        diffused = np.real(np.fft.ifft2(np.fft.fft2(plus.values) * heat))
        moved = ScalarField2D(grid, np.maximum(np.roll(diffused, 1, axis=0), 0.0))
        mu = field_to_measure(plus, max_support=260)
        nu = field_to_measure(moved, max_support=260)
        mu = mu.scaled(nu.total_mass / mu.total_mass)
        assert len(mu) == len(nu) == 260
        assert_matches_dense(mu, nu, p)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("p", [1, 2])
    def test_distance_is_the_exact_route(self, seed, p):
        mu, nu = unequal_pair(seed, 40, 30)
        assert transport.distance(mu, nu, p, "exact", 1e-4) == wasserstein_exact(mu, nu, p=p)[0]


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the maximum for stability.

    A slice whose entries are all -inf gives -inf.
    """
    shift = np.max(x, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - shift), axis=axis))
    return out + np.squeeze(shift, axis=axis)


def reference_sinkhorn_potentials(log_a, log_b, C, eps, f, g, mass):
    """Balanced log-domain Sinkhorn at fixed eps; returns (f, g, violation).

    The iteration the scaling-domain solver reproduces: the same updates, the
    same stopping rule, with every kernel sum taken as a shifted logsumexp.
    """
    viol = math.inf
    a = np.exp(log_a)
    row_lse = _logsumexp((g[None, :] - C) / eps, axis=1)
    for _ in range(transport.SINKHORN_MAX_ITER):
        f = eps * log_a - eps * row_lse
        g = eps * log_b - eps * _logsumexp((f[:, None] - C) / eps, axis=0)
        # row-marginal violation of the implied plan (columns are exact): the
        # plan's row sums are a * exp(next_lse - row_lse), and next_lse is the
        # next f-update's logsumexp
        next_lse = _logsumexp((g[None, :] - C) / eps, axis=1)
        viol = float(np.sum(a * np.abs(np.expm1(next_lse - row_lse)))) / mass
        row_lse = next_lse
        if viol < transport.SINKHORN_TOL:
            break
    return f, g, viol


def reference_sinkhorn_cost(mu, nu, C, eps_target):
    """Primal transport cost <pi, C> of log-domain Sinkhorn with epsilon-scaling."""
    mass = mu.total_mass
    with np.errstate(divide="ignore"):
        log_a = np.log(mu.weights)
        log_b = np.log(nu.weights)
    f = np.zeros(len(mu))
    g = np.zeros(len(nu))
    eps = max(float(C.max()), eps_target)
    while True:
        f, g, viol = reference_sinkhorn_potentials(log_a, log_b, C, eps, f, g, mass)
        if eps <= eps_target:
            break
        eps = max(eps * 0.5, eps_target)
    assert viol < transport.SINKHORN_TOL
    return float(np.sum(np.exp((f[:, None] + g[None, :] - C) / eps) * C))


def patch_measures(length, m):
    """The heaviest m cells of a patch and of the same patch moved by a few
    cells: the kind of pair the harness transports."""
    grid = Grid2D(128, length)
    w = make_initial_data(
        "patch_pair", grid, radius=0.15 * length, separation=0.4 * length
    )
    plus = split_signed(w).plus
    moved = ScalarField2D(grid, np.roll(plus.values, (3, 5), axis=(0, 1)))
    mu = field_to_measure(plus, max_support=m)
    nu = field_to_measure(moved, max_support=m)
    return mu, nu.scaled(mu.total_mass / nu.total_mass)


def far_atom_pair():
    """Five atoms near (0.1, 0.1) against four there and one across the unit
    torus, so at eps = 1e-4 the plain Gibbs kernel exp(-C / eps) has a zero row."""
    near = [[0.105, 0.10], [0.115, 0.12], [0.125, 0.105], [0.10, 0.125], [0.12, 0.13]]
    far = [[0.10, 0.10], [0.12, 0.11], [0.11, 0.13], [0.13, 0.12], [0.60, 0.60]]
    w = np.full(5, 0.2)
    return DiscreteMeasure(far, w, 1.0), DiscreteMeasure(near, w, 1.0)


class TestSinkhorn:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exact_within_two_percent(self, seed):
        mu, nu = random_pair(seed, m=12, equal_weights=False)
        exact = wasserstein_exact(mu, nu)[0]
        approx = wasserstein_sinkhorn(mu, nu, epsilon=1e-4)
        assert approx == pytest.approx(exact, rel=0.02)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("p", [1, 2])
    def test_distance_is_the_debiased_route(self, seed, p):
        mu, nu = random_pair(seed, m=12, equal_weights=False)
        want = wasserstein_sinkhorn(mu, nu, p=p, epsilon=1e-3)
        # fresh measures, so the self-terms are solved again rather than recalled
        fresh = random_pair(seed, m=12, equal_weights=False)
        assert transport.distance(*fresh, p, "sinkhorn", 1e-3) == want
        assert transport.distance(*fresh, p, "sinkhorn", 1e-3) == want

    def test_self_terms_memoised_per_measure(self, monkeypatch):
        mu, nu = random_pair(4, m=8, equal_weights=False)
        solves = []
        real = transport._sinkhorn_cost

        def counting(a, b, *args):
            solves.append(a is b)
            return real(a, b, *args)

        monkeypatch.setattr(transport, "_sinkhorn_cost", counting)
        for _ in range(2):
            transport.distance(mu, nu, 2, "sinkhorn", 1e-3)
        transport.distance(mu, nu, 1, "sinkhorn", 1e-3)
        wasserstein_sinkhorn(mu, nu, p=1, epsilon=1e-3)  # the same key
        wasserstein_sinkhorn(mu, nu, p=2, epsilon=2e-3)  # another eps: another key
        # cross terms every call; self-terms once per (measure, p, eps)
        assert solves == [False, True, True, False, False, True, True, False,
                          False, True, True]
        assert set(mu._self_costs) == {(2, 1e-3), (1, 1e-3), (2, 2e-3)}
        assert "_self_costs" not in repr(mu)

    def test_distance_rejects_unknown_method(self):
        mu, nu = random_pair(0)
        with pytest.raises(TransportError, match="method"):
            transport.distance(mu, nu, 2, "magic", 1e-3)

    def test_self_distance_vanishes(self):
        mu, _ = random_pair(1, m=10)
        assert wasserstein_sinkhorn(mu, mu) == pytest.approx(0.0, abs=1e-6)

    def test_epsilon_ladder_tightens(self):
        mu, nu = random_pair(8, m=10, equal_weights=False)
        exact = wasserstein_exact(mu, nu)[0]
        errs = [
            abs(wasserstein_sinkhorn(mu, nu, epsilon=e) - exact)
            for e in (3e-2, 3e-3, 3e-4)
        ]
        assert errs[-1] <= errs[0]
        assert errs[-1] < 0.02 * exact

    def test_invalid_epsilon(self):
        mu, nu = random_pair(0)
        with pytest.raises(TransportError, match="epsilon"):
            wasserstein_sinkhorn(mu, nu, epsilon=0.0)

    @pytest.mark.parametrize("shape", [(12, 12), (38, 38), (100, 100), (7, 40)])
    def test_logsumexp_matches_scipy(self, shape):
        from scipy.special import logsumexp

        rng = np.random.default_rng(shape[0])
        # the Sinkhorn exponents (g - C) / eps: large negative entries, and
        # -inf where an atom has zero weight; one row and one column all -inf
        x = (rng.normal(size=shape[1])[None, :] - rng.uniform(size=shape)) / 1e-2
        x[rng.uniform(size=shape) < 0.1] = -np.inf
        x[0, :] = -np.inf
        x[:, -1] = -np.inf
        for axis in (0, 1):
            got = _logsumexp(x, axis=axis)
            with np.errstate(divide="ignore"):
                want = logsumexp(x, axis=axis)
            assert np.array_equal(np.isneginf(got), np.isneginf(want))
            finite = np.isfinite(want)
            assert finite.sum() >= shape[1 - axis] - 1
            np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14, atol=0)


class TestScalingDomain:
    """The scaling-domain solver against the log-domain reference, and its guards."""

    @pytest.mark.parametrize("eps", [1e-3, 2e-4, 1e-4])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("m", [12, 38, 100, 600])
    @pytest.mark.parametrize("length", [0.4, 1.0])
    def test_matches_log_domain_reference(self, length, m, p, eps):
        mu, nu = patch_measures(length, m)
        assert len(mu) == len(nu) == m
        C = cost_matrix(mu, nu, p)
        got = transport._sinkhorn_cost(mu, nu, C, eps)
        want = reference_sinkhorn_cost(mu, nu, C, eps)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_zero_weight_atoms_are_dropped(self):
        mu, nu = random_pair(3, m=12, equal_weights=False)
        mu.weights[[2, 7]] = 0.0
        nu.weights[5] = 0.0
        nu.weights *= mu.total_mass / nu.total_mass
        C = cost_matrix(mu, nu, 2)
        # kept, they would get zero scalings, which the underflow guard refuses
        want = reference_sinkhorn_cost(mu, nu, C, 1e-3)
        got = transport._sinkhorn_cost(mu, nu, C, 1e-3)
        dist = wasserstein_sinkhorn(mu, nu, p=2, epsilon=1e-3)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert math.isfinite(dist) and dist > 0

    def test_zero_mass_costs_nothing(self):
        mu, nu = random_pair(0, m=4)
        empty = DiscreteMeasure(mu.points, np.zeros(4), 1.0)
        nothing = DiscreteMeasure(nu.points, np.zeros(4), 1.0)
        assert wasserstein_sinkhorn(empty, nothing) == 0.0

    @pytest.mark.parametrize("line", ["row", "column"])
    def test_underflowed_kernel_line_raises(self, line):
        mu, nu = far_atom_pair()
        if line == "column":
            mu, nu = nu, mu
        C = cost_matrix(mu, nu, 1)
        eps = 1e-4
        assert (np.exp(-C / eps).sum(axis=1 if line == "row" else 0) == 0).any()
        # one level at the target eps from zero potentials: no schedule to absorb
        zeros = np.zeros(5)
        with pytest.raises(TransportError, match="underflow"):
            transport._sinkhorn_potentials(mu.weights, nu.weights, C, eps, zeros, zeros, 1.0)

    def test_converges_only_through_absorption(self):
        mu, nu = far_atom_pair()
        C = cost_matrix(mu, nu, 1)
        eps = 1e-4
        assert C.max() / eps > 9 * 708  # exp(-708) is near the smallest normal double
        got = transport._sinkhorn_cost(mu, nu, C, eps)
        want = reference_sinkhorn_cost(mu, nu, C, eps)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        exact = wasserstein_exact(mu, nu, p=1)[0]
        assert wasserstein_sinkhorn(mu, nu, p=1, epsilon=eps) == pytest.approx(exact, rel=0.02)

    def test_absorbs_out_of_bound_scalings_within_a_level(self, monkeypatch):
        # one level from zero potentials at C.max() / eps = 600: the kernel is
        # representable, but the far atom's scaling reaches about 1e259
        mu, nu = far_atom_pair()
        C = cost_matrix(mu, nu, 1)
        eps = float(C.max()) / 600
        builds = []
        real = transport._gibbs_kernel

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(transport, "_gibbs_kernel", counting)
        zeros = np.zeros(5)
        a, b = mu.weights, nu.weights
        f, g, viol = transport._sinkhorn_potentials(a, b, C, eps, zeros, zeros, 1.0)
        assert len(builds) > 1
        rf, rg, rviol = reference_sinkhorn_potentials(
            np.log(a), np.log(b), C, eps, zeros, zeros, 1.0
        )
        assert viol < 1e-3 and viol == pytest.approx(rviol, rel=1e-9)
        plan = np.exp((f[:, None] + g[None, :] - C) / eps)
        want = np.exp((rf[:, None] + rg[None, :] - C) / eps)
        assert np.sum(plan * C) == pytest.approx(np.sum(want * C), rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_raises_not_nan(self, monkeypatch, bad):
        real = transport._gibbs_kernel

        def poisoned(*args):
            K = real(*args)
            K[1, 2] = bad
            return K

        monkeypatch.setattr(transport, "_gibbs_kernel", poisoned)
        mu, nu = random_pair(2, m=6, equal_weights=False)
        with pytest.raises(TransportError, match="underflow"):
            transport.distance(mu, nu, 2, "sinkhorn", 1e-3)


class TestDual:
    @pytest.mark.parametrize("seed", range(5))
    def test_strong_duality(self, seed):
        mu, nu = random_pair(seed, m=6, equal_weights=False)
        primal = wasserstein_exact(mu, nu, p=1)[0]
        dual, zeta = w1_dual(mu, nu)
        assert dual == pytest.approx(primal, rel=1e-6)

    def test_potential_is_lipschitz(self):
        mu, nu = random_pair(2, m=6)
        _, zeta = w1_dual(mu, nu)
        pts = np.vstack([mu.points, nu.points])
        merged = DiscreteMeasure(pts, np.ones(len(pts)), 1.0)
        D = cost_matrix(merged, merged, 1)
        gap = np.abs(zeta[:, None] - zeta[None, :]) - D
        assert gap.max() <= 1e-7


class TestInequalities:
    @pytest.mark.parametrize("seed", range(5))
    def test_w1_below_w2(self, seed):
        mu, nu = random_pair(seed, m=8, equal_weights=False)
        rep = check_order_w1_w2(mu, nu)
        assert rep.ok
        assert rep.lhs <= rep.rhs + 1e-8

    def test_hm1_dominated_by_w2(self, grid32):
        x1, x2 = grid32.coords()
        bump = lambda cx, cy: np.exp(-80 * ((x1 - cx) ** 2 + (x2 - cy) ** 2))
        a = bump(0.35, 0.5)
        b = np.roll(a, 4, axis=0)
        b *= a.sum() / b.sum()
        rep = check_hm1_domination(
            ScalarField2D(grid32, a), ScalarField2D(grid32, b), max_support=280
        )
        assert rep.ok

    def test_domination_rejects_signed_input(self, grid32):
        v = np.zeros((32, 32))
        v[0, 0], v[3, 3] = 1.0, -1.0
        f = ScalarField2D(grid32, v)
        with pytest.raises(TransportError):
            check_hm1_domination(f, f)


class TestHypothesisProperties:
    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_exact_nonnegative_and_symmetric(self, seed, m):
        mu, nu = random_pair(seed, m=m)
        d = wasserstein_exact(mu, nu)[0]
        assert d >= 0
        assert d <= math.sqrt(mu.total_mass) * (1.0 / math.sqrt(2)) + 1e-9
