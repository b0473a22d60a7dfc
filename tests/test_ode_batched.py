"""Tests for the batched BDF integrator and its supporting substrates.

The batched path (§3.8's CVODE+MAGMA motif) is a variable-order (1–5)
NDF/BDF advanced in lockstep with batched linear algebra.  The property
test drives it and the scalar BDF(1,2) integrator on batches of random
stiff linear systems — including badly ragged batches where per-cell
stiffness spans several decades so cells converge at very different
rates — and checks agreement within solver tolerances; the accuracy
oracles hold it to scipy and to exact ``expm`` solutions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.chem.codegen import compile_batched_kernels, compile_rates
from repro.chem.kinetics import (
    analytic_jacobian,
    analytic_jacobian_batch,
    production_rates,
    production_rates_batch,
)
from repro.chem.mechanism import h2_o2_mechanism
from repro.linalg import BatchedLU, batched_lu_factor, batched_lu_solve_factored
from repro.ode import BatchedBdfIntegrator, BdfIntegrator, IntegrationError


def _random_stiff_batch(seed: int, ncells: int, n: int):
    """Per-cell stable linear systems with stiffness spread over decades."""
    rng = np.random.default_rng(seed)
    A = np.empty((ncells, n, n))
    for b in range(ncells):
        lam = -(10.0 ** rng.uniform(-1.0, 3.0, n))  # decades of stiffness
        Q = rng.standard_normal((n, n)) * 0.3 + np.eye(n)
        A[b] = Q @ np.diag(lam) @ np.linalg.inv(Q)
    y0 = rng.uniform(0.5, 1.5, (ncells, n))
    return A, y0


class TestBatchedLUFactor:
    def test_factored_solve_matches_numpy(self):
        rng = np.random.default_rng(3)
        mats = rng.standard_normal((8, 5, 5)) + 5.0 * np.eye(5)
        rhs = rng.standard_normal((8, 5))
        lu, piv = batched_lu_factor(mats)
        x = batched_lu_solve_factored(lu, piv, rhs)
        ref = np.stack([np.linalg.solve(m, b) for m, b in zip(mats, rhs)])
        assert np.allclose(x, ref, atol=1e-10)

    def test_pivoting_handles_zero_diagonal(self):
        mats = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        rhs = np.array([[2.0, 3.0]])
        lu, piv = batched_lu_factor(mats)
        x = batched_lu_solve_factored(lu, piv, rhs)
        assert np.allclose(x, [[3.0, 2.0]])

    def test_factor_once_solve_many(self):
        rng = np.random.default_rng(4)
        mats = rng.standard_normal((6, 4, 4)) + 4.0 * np.eye(4)
        handle = BatchedLU(mats)
        for k in range(3):
            rhs = rng.standard_normal((6, 4))
            ref = np.stack([np.linalg.solve(m, b) for m, b in zip(mats, rhs)])
            assert np.allclose(handle.solve(rhs), ref, atol=1e-10)

    def test_subset_solve_and_update(self):
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((6, 3, 3)) + 3.0 * np.eye(3)
        handle = BatchedLU(mats)
        idx = np.array([1, 4])
        rhs = rng.standard_normal((2, 3))
        ref = np.stack([np.linalg.solve(mats[i], b) for i, b in zip(idx, rhs)])
        assert np.allclose(handle.solve_subset(idx, rhs), ref, atol=1e-10)
        fresh = rng.standard_normal((2, 3, 3)) + 3.0 * np.eye(3)
        handle.update(idx, fresh)
        ref2 = np.stack([np.linalg.solve(m, b) for m, b in zip(fresh, rhs)])
        assert np.allclose(handle.solve_subset(idx, rhs), ref2, atol=1e-10)


class TestBatchedKinetics:
    def test_rates_batch_matches_per_cell(self):
        mech = h2_o2_mechanism()
        rng = np.random.default_rng(0)
        conc = rng.uniform(0.01, 1.0, (5, mech.n_species))
        T = rng.uniform(900.0, 1500.0, 5)
        batch = production_rates_batch(mech, T, conc)
        for i in range(5):
            ref = production_rates(mech, float(T[i]), conc[i])
            assert np.allclose(batch[i], ref, rtol=1e-12)

    def test_jacobian_batch_matches_per_cell(self):
        mech = h2_o2_mechanism()
        rng = np.random.default_rng(1)
        conc = rng.uniform(0.01, 1.0, (4, mech.n_species))
        T = rng.uniform(900.0, 1500.0, 4)
        batch = analytic_jacobian_batch(mech, T, conc)
        for i in range(4):
            ref = analytic_jacobian(mech, float(T[i]), conc[i])
            assert np.allclose(batch[i], ref, rtol=1e-10, atol=1e-8)

    def test_generated_batched_kernels_match_interpreted(self):
        mech = h2_o2_mechanism()
        kernels = compile_batched_kernels(mech)
        rng = np.random.default_rng(2)
        conc = rng.uniform(0.01, 1.0, (6, mech.n_species))
        T = rng.uniform(900.0, 1500.0, 6)
        assert np.allclose(kernels.rates(T, conc),
                           production_rates_batch(mech, T, conc), rtol=1e-12)
        assert np.allclose(kernels.jacobian(T, conc),
                           analytic_jacobian_batch(mech, T, conc), rtol=1e-10)

    def test_rates_broadcast_leading_axes(self):
        # the FD-Jacobian contract: a stacked (k, B, n) state evaluates
        # column-by-column identically to k separate (B, n) evaluations
        mech = h2_o2_mechanism()
        kernels = compile_batched_kernels(mech)
        rng = np.random.default_rng(3)
        stacked = rng.uniform(0.01, 1.0, (3, 4, mech.n_species))
        T = rng.uniform(900.0, 1500.0, 4)
        out = kernels.rates(T, stacked)
        assert out.shape == stacked.shape
        for k in range(3):
            assert np.allclose(out[k], kernels.rates(T, stacked[k]))

    def test_codegen_memoized_per_mechanism(self):
        mech = h2_o2_mechanism()
        assert compile_batched_kernels(mech) is compile_batched_kernels(mech)
        assert compile_rates(mech) is compile_rates(mech)
        # an equivalent-but-distinct Mechanism object hits the same cache
        assert compile_batched_kernels(h2_o2_mechanism()) is (
            compile_batched_kernels(mech)
        )


class TestBatchedBdf:
    def test_exponential_decay_batch(self):
        lam = np.array([1.0, 10.0, 100.0])
        integ = BatchedBdfIntegrator(
            lambda t, y: -lam[:, None] * y, rtol=1e-8, atol=1e-12)
        res = integ.integrate(np.ones((3, 1)), 0.0, 1.0)
        assert np.allclose(res.y[:, 0], np.exp(-lam), rtol=1e-5)
        assert np.all(res.t == 1.0)

    def test_matches_exact_solution_mixed_stiffness(self):
        A, y0 = _random_stiff_batch(7, ncells=6, n=3)
        integ = BatchedBdfIntegrator(
            lambda t, y: np.einsum("bij,...bj->...bi", A, y),
            rtol=1e-7, atol=1e-10)
        res = integ.integrate(y0, 0.0, 0.5)
        exact = np.stack([expm(0.5 * A[b]) @ y0[b] for b in range(len(A))])
        assert np.allclose(res.y, exact, rtol=1e-4, atol=1e-7)

    def test_fd_jacobian_matches_analytic_path(self):
        A, y0 = _random_stiff_batch(11, ncells=4, n=3)

        def rhs(t, y):
            return np.einsum("bij,...bj->...bi", A, y)

        fd = BatchedBdfIntegrator(rhs, rtol=1e-7, atol=1e-10)
        an = BatchedBdfIntegrator(
            rhs, jac=lambda t, y: A, rtol=1e-7, atol=1e-10)
        rf = fd.integrate(y0, 0.0, 0.3)
        ra = an.integrate(y0, 0.0, 0.3)
        assert np.allclose(rf.y, ra.y, rtol=1e-5, atol=1e-8)
        # analytic path never sweeps the RHS to build Jacobians
        assert ra.stats.rhs_sweeps < rf.stats.rhs_sweeps

    def test_jacobian_reuse_keeps_builds_far_below_steps(self):
        A, y0 = _random_stiff_batch(13, ncells=5, n=3)
        integ = BatchedBdfIntegrator(
            lambda t, y: np.einsum("bij,...bj->...bi", A, y),
            rtol=1e-6, atol=1e-9)
        res = integ.integrate(y0, 0.0, 1.0)
        assert res.stats.jac_builds < res.stats.steps / 5

    def test_validates_inputs(self):
        integ = BatchedBdfIntegrator(lambda t, y: -y)
        with pytest.raises(IntegrationError):
            integ.integrate(np.ones((2, 2)), 1.0, 0.0)
        with pytest.raises(IntegrationError):
            integ.integrate(np.ones(3), 0.0, 1.0)

    def test_max_steps_ignores_finished_cells(self):
        """A cell that finished in exactly ``max_steps`` steps must not
        abort its still-running neighbours; a running one at the budget
        still raises."""
        integ = BatchedBdfIntegrator(lambda t, y: -y, max_steps=5)
        state = integ.start(np.ones((2, 1)), 0.0, 1.0)
        state.steps_per_cell[0] = 5
        state.t[0] = 1.0
        state.done[0] = True
        integ.step_round(state)  # cell 1 is still within its budget
        assert state.stats.step_rounds == 1
        state.steps_per_cell[1] = 5
        with pytest.raises(IntegrationError, match="cell 1"):
            integ.step_round(state)

    def test_step_underflow_raises(self):
        def discontinuous(t, y):
            t_arr = np.broadcast_to(np.asarray(t, dtype=float), y.shape[-2])
            bad = (t_arr > 0.5)[..., None]
            return np.where(bad, np.inf, -y)

        integ = BatchedBdfIntegrator(discontinuous, rtol=1e-8, atol=1e-12)
        with pytest.raises((IntegrationError, FloatingPointError, ValueError)):
            integ.integrate(np.ones((2, 1)), 0.0, 1.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000),
       ncells=st.integers(2, 5),
       n=st.integers(2, 4))
def test_batched_matches_scalar_property(seed, ncells, n):
    """Batched and scalar BDF agree on random ragged stiff batches."""
    A, y0 = _random_stiff_batch(seed, ncells, n)
    rtol, atol = 1e-6, 1e-9
    batched = BatchedBdfIntegrator(
        lambda t, y: np.einsum("bij,...bj->...bi", A, y),
        jac=lambda t, y: A, rtol=rtol, atol=atol)
    res = batched.integrate(y0, 0.0, 0.5)
    for b in range(ncells):
        scalar = BdfIntegrator(lambda t, y, Ab=A[b]: Ab @ y,
                               rtol=rtol, atol=atol)
        ref = scalar.integrate(y0[b].copy(), 0.0, 0.5).y
        # both carry O(tol) local error; compare against a shared band
        scale = np.abs(ref) + np.abs(y0[b]).max()
        assert np.all(np.abs(res.y[b] - ref) <= 200 * rtol * scale + 100 * atol)


def _run_to_end(integ, y0, t_end):
    """Integrate round by round; also return each cell's peak |y|."""
    state = integ.start(y0, 0.0, t_end)
    peak = np.abs(state.Y)
    while not state.finished:
        integ.step_round(state)
        peak = np.maximum(peak, np.abs(state.Y))
    return state, peak


def _error_vs_budget(state, peak, ref, rtol, atol):
    """Per-cell WRMS error in tolerance units, and its step-count bound.

    Each accepted step keeps its local error within one tolerance unit,
    ``rtol*|y_n| + atol`` in WRMS, and ``|y_n|`` never exceeds the
    cell's peak; on these contractive problems the global error is at
    most the sum of the local ones — the cell's accepted step count.
    """
    e = (state.Y - ref) / (rtol * peak + atol)
    return np.sqrt(np.mean(e * e, axis=-1)), state.steps_per_cell


class TestAccuracyOracles:
    """The integrator against solutions it shares no code with; each
    check prints its worst margin to the bound."""

    rtol, atol = 1e-6, 1e-9

    def test_drm19_field_matches_tight_scipy_bdf(self):
        from scipy.integrate import solve_ivp
        from scipy.linalg import block_diag

        from repro.apps.pele import PeleConfig, chemistry_field
        from repro.backend import get_backend
        from repro.chem.fused import fused_jacobian, rate_tables

        cfg = PeleConfig()
        T, C0 = chemistry_field(cfg, 8, seed=0)
        B, n = C0.shape
        tables = rate_tables(cfg.mechanism)
        kernel = get_backend("numpy").rates_kernel(tables)
        kf, kr = kernel.rate_constants(T)

        def rhs(t, conc):
            return kernel.wdot(kf, kr, np.maximum(conc, 0.0))

        def jac(t, conc):
            return fused_jacobian(tables, kf, kr, np.maximum(conc, 0.0))

        state, peak = _run_to_end(BatchedBdfIntegrator(
            rhs, jac=jac, rtol=self.rtol, atol=self.atol), C0, 1e-9)
        assert np.all(state.t == 1e-9)
        # the whole field as one stacked system, four decades tighter
        ref = solve_ivp(
            lambda t, y: rhs(t, y.reshape(B, n)).ravel(), (0.0, 1e-9),
            C0.ravel(), method="BDF", rtol=1e-10, atol=1e-13,
            jac=lambda t, y: block_diag(*jac(t, y.reshape(B, n))))
        assert ref.success
        err, bound = _error_vs_budget(state, peak,
                                      ref.y[:, -1].reshape(B, n),
                                      self.rtol, self.atol)
        margin = float((1.0 - err / bound).min())
        print(f"drm19 vs scipy: worst {err.max():.2f} tolerance units, "
              f"margin {margin:.1%} to the step-count bound")
        assert np.all(err <= bound)

    def test_random_stiff_batches_match_expm(self):
        worst_margin = 1.0
        for seed in range(24):
            rng = np.random.default_rng([seed, 7])
            ncells, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            A, y0 = _random_stiff_batch(seed, ncells, n)
            state, peak = _run_to_end(BatchedBdfIntegrator(
                lambda t, y: np.einsum("bij,...bj->...bi", A, y),
                jac=lambda t, y: A, rtol=self.rtol, atol=self.atol),
                y0, 0.5)
            exact = np.stack([expm(0.5 * A[b]) @ y0[b]
                              for b in range(ncells)])
            err, bound = _error_vs_budget(state, peak, exact,
                                          self.rtol, self.atol)
            assert np.all(err <= bound), (seed, err, bound)
            worst_margin = min(worst_margin, float((1.0 - err / bound).min()))
        print(f"expm oracle: margin {worst_margin:.1%} to the step-count "
              f"bound over 24 batches")
