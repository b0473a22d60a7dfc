"""Tests for the chemistry substrates: RI-MP2, MBE fragments, kinetics, codegen."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem import (
    analytic_jacobian,
    chemistry_rhs,
    compile_rates,
    distribute_fragments,
    drm19_like_mechanism,
    estimate_registers,
    fragment_scaling_efficiency,
    generate_rates_source,
    generated_lines_for_jacobian,
    h2_o2_mechanism,
    jacobian_flop_count,
    make_fragment,
    mbe_energy,
    numerical_jacobian,
    production_rates,
    rates_flop_count,
    rimp2_energy,
    rimp2_energy_reference,
    rimp2_flops,
    supersystem_energy,
    water_cluster,
)
from repro.chem.mechanism import Mechanism, Reaction


class TestRimp2:
    def test_gemm_path_matches_einsum(self):
        frag = make_fragment(5, 10, 30, seed=0)
        assert rimp2_energy(frag) == pytest.approx(rimp2_energy_reference(frag), rel=1e-12)

    def test_correlation_energy_is_negative(self):
        """MP2 correlation lowers the energy for a gapped reference."""
        for seed in range(5):
            frag = make_fragment(4, 8, 24, seed=seed)
            assert rimp2_energy(frag) < 0.0

    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            make_fragment(0, 8, 24)

    def test_flops_model(self):
        assert rimp2_flops(4, 10, 20) == 2.0 * 16 * 100 * 20

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=4, max_value=10))
    def test_property_gemm_vs_einsum(self, nocc, nvirt):
        frag = make_fragment(nocc, nvirt, 16, seed=nocc * nvirt)
        assert rimp2_energy(frag) == pytest.approx(rimp2_energy_reference(frag), rel=1e-10)


class TestFragments:
    def test_mbe_exact_for_additive_potential(self):
        """Untruncated 2-body MBE must equal the supersystem energy."""
        frags = water_cluster(10, seed=0)
        r = mbe_energy(frags)
        assert r.energy == pytest.approx(supersystem_energy(frags), rel=1e-12)
        assert r.pairs_skipped == 0

    def test_cutoff_introduces_small_error_and_skips_pairs(self):
        frags = water_cluster(12, seed=1)
        full = mbe_energy(frags)
        truncated = mbe_energy(frags, cutoff=4.5)
        assert truncated.pairs_skipped > 0
        assert truncated.pairs_computed < full.pairs_computed
        # distant fragments interact weakly: error must be small
        assert abs(truncated.energy - full.energy) < 0.05 * abs(full.energy)

    def test_cluster_has_requested_size(self):
        frags = water_cluster(935, seed=2)  # the paper's water demo size
        assert len(frags) == 935
        assert all(f.natoms == 3 for f in frags)

    def test_independent_task_count(self):
        frags = water_cluster(8, seed=3)
        r = mbe_energy(frags)
        assert r.n_independent_tasks == 8 + 8 * 7 // 2

    def test_distribution_round_robin(self):
        buckets = distribute_fragments(10, 3)
        assert sorted(sum(buckets, [])) == list(range(10))
        assert max(len(b) for b in buckets) - min(len(b) for b in buckets) <= 1

    def test_scaling_efficiency_near_ideal_when_tasks_dominate(self):
        """GAMESS's near-ideal linear scaling: tasks >> ranks."""
        eff = fragment_scaling_efficiency(437_580, 2048)  # 935-water pair count
        assert eff > 0.99

    def test_scaling_efficiency_degrades_when_ranks_exceed_tasks(self):
        assert fragment_scaling_efficiency(10, 64) < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            water_cluster(0)
        with pytest.raises(ValueError):
            distribute_fragments(5, 0)


class TestKinetics:
    @pytest.fixture(scope="class")
    def state(self):
        mech = h2_o2_mechanism()
        rng = np.random.default_rng(0)
        return mech, 1200.0, rng.uniform(0.1, 1.0, mech.n_species)

    def test_mass_conservation_structure(self, state):
        mech, _, _ = state
        # every reaction's stoichiometry must balance species counts under
        # the elemental composition implicit in the mechanism
        net = mech.conserved_atoms()
        assert net.shape == (mech.n_reactions, mech.n_species)

    def test_analytic_jacobian_matches_numerical(self, state):
        mech, T, conc = state
        ja = analytic_jacobian(mech, T, conc)
        jn = numerical_jacobian(mech, T, conc)
        np.testing.assert_allclose(ja, jn, rtol=1e-4, atol=1e-6 * np.abs(jn).max())

    def test_drm19_like_jacobian(self):
        mech = drm19_like_mechanism()
        rng = np.random.default_rng(1)
        conc = rng.uniform(0.1, 1.0, mech.n_species)
        ja = analytic_jacobian(mech, 1500.0, conc)
        jn = numerical_jacobian(mech, 1500.0, conc)
        np.testing.assert_allclose(ja, jn, rtol=1e-3, atol=1e-5 * np.abs(jn).max())

    def test_equilibrium_has_zero_rates(self):
        """A single reversible reaction at detailed balance."""
        mech = Mechanism(
            name="toy",
            species=("A", "B"),
            reactions=(Reaction({0: 1}, {1: 1}, A=2.0, reverse_A=1.0),),
        )
        # kf·[A] = kr·[B] at T where kf=2, kr=1: [A]=1, [B]=2
        w = production_rates(mech, 300.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(w, 0.0, atol=1e-12)

    def test_rhs_wrapper_clips_negative(self, state):
        mech, T, _ = state
        rhs = chemistry_rhs(mech, T)
        out = rhs(0.0, -np.ones(mech.n_species))
        assert np.all(np.isfinite(out))

    def test_flop_counts_positive_and_ordered(self):
        small, big = h2_o2_mechanism(), drm19_like_mechanism()
        assert rates_flop_count(big) > rates_flop_count(small) > 0
        assert jacobian_flop_count(big) > jacobian_flop_count(small)

    def test_bad_reaction_rejected(self):
        with pytest.raises(ValueError):
            Mechanism(name="bad", species=("A",),
                      reactions=(Reaction({0: 1}, {5: 1}, A=1.0),))

    def test_concentration_shape_validated(self, state):
        mech, T, _ = state
        with pytest.raises(ValueError):
            production_rates(mech, T, np.zeros(3))


class TestCodegen:
    def test_generated_matches_interpreted(self):
        mech = h2_o2_mechanism()
        gk = compile_rates(mech)
        rng = np.random.default_rng(2)
        for _ in range(5):
            T = rng.uniform(600, 2500)
            conc = rng.uniform(0.01, 2.0, mech.n_species)
            np.testing.assert_allclose(
                gk.fn(T, conc), production_rates(mech, T, conc), rtol=1e-12
            )

    def test_generated_matches_for_drm19_like(self):
        mech = drm19_like_mechanism()
        gk = compile_rates(mech)
        rng = np.random.default_rng(3)
        conc = rng.uniform(0.01, 1.0, mech.n_species)
        np.testing.assert_allclose(
            gk.fn(1400.0, conc), production_rates(mech, 1400.0, conc), rtol=1e-12
        )

    def test_source_is_unrolled(self):
        src = generate_rates_source(h2_o2_mechanism())
        assert "for " not in src  # fully unrolled, no loops
        assert "reaction 5" in src

    def test_line_count_scales_with_mechanism(self):
        small = compile_rates(h2_o2_mechanism())
        big = compile_rates(drm19_like_mechanism())
        assert big.n_lines > 5 * small.n_lines

    def test_register_estimate_reaches_paper_scale(self):
        """§3.8: large kernels 'use upwards of 18k registers'.

        A detailed-mechanism-sized input (e.g. 1000+ reactions) must push
        the estimate to that order.
        """
        rng = np.random.default_rng(4)
        reactions = tuple(
            Reaction({int(rng.integers(0, 50)): 1}, {int(rng.integers(50, 100)): 1},
                     A=1e5)
            for _ in range(6000)
        )
        mech = Mechanism(name="detailed", species=tuple(f"S{i}" for i in range(100)),
                         reactions=reactions)
        assert estimate_registers(mech) > 18_000

    def test_jacobian_line_estimate_scales(self):
        assert generated_lines_for_jacobian(drm19_like_mechanism()) > \
            generated_lines_for_jacobian(h2_o2_mechanism())

    def test_chemistry_integrates_with_bdf(self):
        """End-to-end: generated rates + CVODE-like integrator (§3.8)."""
        from repro.ode import BdfIntegrator

        mech = h2_o2_mechanism()
        gk = compile_rates(mech)
        T = 1500.0
        c0 = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        integ = BdfIntegrator(
            lambda t, c: gk.fn(T, np.maximum(c, 0.0)),
            jac=lambda t, c: analytic_jacobian(mech, T, np.maximum(c, 0.0)),
            rtol=1e-5, atol=1e-9,
        )
        res = integ.integrate(c0, 0.0, 1e-3)
        assert np.all(res.y > -1e-8)
        assert res.stats.steps > 0
        # radicals must have formed
        assert res.y[3:].sum() > 1e-8


def _mixed_mechanism() -> Mechanism:
    """ν=2 reactants and products, irreversible and reversible steps."""
    return Mechanism(
        name="mixed-parity",
        species=("A", "B", "C", "D"),
        reactions=(
            Reaction({0: 2}, {1: 1}, A=3.0e6, b=0.5, Ea=2.0e4),
            Reaction({1: 1, 2: 1}, {3: 2}, A=1.0e5, b=-0.3, Ea=1.0e4,
                     reverse_A=2.0e3, reverse_b=0.2, reverse_Ea=5.0e3),
            Reaction({3: 1}, {0: 1, 2: 1}, A=4.0e4, Ea=3.0e4),
            Reaction({2: 2}, {0: 2}, A=7.0e3, b=1.0,
                     reverse_A=9.0e2, reverse_Ea=4.0e4),
        ),
    )


class TestFusedJacobian:
    """The fused-table Jacobian against its generated-kernel oracle."""

    @pytest.mark.parametrize("mech_fn", [h2_o2_mechanism, drm19_like_mechanism,
                                         _mixed_mechanism])
    def test_matches_generated_kernel(self, mech_fn):
        from repro.backend.numpy_backend import NumpyBackend
        from repro.chem.codegen import compile_batched_kernels
        from repro.chem.fused import fused_jacobian, rate_tables

        mech = mech_fn()
        tables = rate_tables(mech)
        rng = np.random.default_rng(11)
        T = rng.uniform(1200.0, 1800.0, 7)
        C = rng.uniform(0.05, 1.0, (7, mech.n_species))
        kf, kr = NumpyBackend().rates_kernel(tables).rate_constants(T)
        got = fused_jacobian(tables, kf, kr, C)
        want = compile_batched_kernels(mech).jacobian(T, C)
        assert got.shape == (7, mech.n_species, mech.n_species)
        rel = np.abs(got - want).max() / np.abs(want).max()
        print(f"{mech.name}: relative deviation {rel:.1e} (bound 1e-12)")
        assert rel <= 1e-12

    def test_mixed_mechanism_exercises_both_edge_cases(self):
        from repro.chem.fused import rate_tables

        tables = rate_tables(_mixed_mechanism())
        assert not tables.has_reverse.all()  # irreversible steps present
        assert (tables.net == 2).any() and (tables.net == -2).any()  # ν=2
