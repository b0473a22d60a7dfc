"""ExaSky campaign step: one force evaluation per step and an exact wrap.

The step reuses the closing kick's acceleration as the next opening kick
and wraps positions with ``x - floor(x)``.  Both are pure restructurings,
so the trajectory must match the textbook step below bit for bit: two
force evaluations per step and ``np.mod``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.exasky import (
    ExaskyCampaign,
    ExaskyConfig,
    campaign_step_cost,
    step_time_per_gpu,
    wrap_unit,
)
from repro.hardware.catalog import FRONTIER
from repro.resilience import SdcDetected, decode_snapshot, encode_snapshot, flip_bit


def _reference_step(app: ExaskyCampaign) -> None:
    """Kick-drift-kick with the force evaluated at both kicks and the
    periodic wrap done by ``np.mod``."""

    def acceleration():
        return -np.sin(2.0 * np.pi * app.pos) * 0.1

    app.vel += 0.5 * app.dt * acceleration()
    app.pos = np.mod(app.pos + app.dt * app.vel, 1.0)
    app.vel += 0.5 * app.dt * acceleration()
    app.steps_done += 1
    app.particles_processed += app.pos.shape[0]


def _assert_same_bits(app: ExaskyCampaign, ref: ExaskyCampaign) -> None:
    assert app.pos.tobytes() == ref.pos.tobytes()
    assert app.vel.tobytes() == ref.vel.tobytes()
    assert app.steps_done == ref.steps_done
    assert app.particles_processed == ref.particles_processed


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


#: signed zeros, subnormal and tiny negatives on both sides of the
#: rounds-to-1.0 threshold, integers beyond 2**53, infinities and NaNs
_EDGE_PATTERNS = [int(b) for b in _bits(np.array([
    -0.0, 0.0, -2.0**-1074, -2.0**-60, -2.0**-54, -2.0**-53, 1.0, -1.0,
    0.5, -0.5, 2.0**53 + 1.0, -(2.0**60), np.inf, -np.inf, np.nan,
    -np.nan,
]))]


class TestStepMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("nparticles", [1, 64, 160])
    def test_fifty_steps_bit_identical(self, seed, nparticles):
        app = ExaskyCampaign(nparticles=nparticles, seed=seed)
        ref = ExaskyCampaign(nparticles=nparticles, seed=seed)
        for _ in range(50):
            assert app.step() == app.step_cost
            _reference_step(ref)
            _assert_same_bits(app, ref)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_across_snapshot_restore(self, seed):
        ref = ExaskyCampaign(nparticles=64, seed=seed)
        app = ExaskyCampaign(nparticles=64, seed=seed)
        for _ in range(20):
            app.step()
            _reference_step(ref)
        blob = encode_snapshot(app.snapshot())
        for _ in range(7):  # run ahead, then roll back
            app.step()
        app.restore(decode_snapshot(blob))
        # a differently seeded instance with its own cached force
        other = ExaskyCampaign(nparticles=64, seed=seed + 100)
        other.step()
        other.restore(decode_snapshot(blob))
        for _ in range(30):
            app.step()
            other.step()
            _reference_step(ref)
        _assert_same_bits(app, ref)
        _assert_same_bits(other, ref)

    @pytest.mark.parametrize("target, element, bit", [
        (0, 5, 3),    # low mantissa bit of a position
        (0, 40, 44),  # high mantissa bit of a position
        (1, 11, 20),  # a velocity
    ])
    def test_after_an_in_place_flip(self, target, element, bit):
        app = ExaskyCampaign(nparticles=64, seed=3)
        ref = ExaskyCampaign(nparticles=64, seed=3)
        for _ in range(10):
            app.step()
            _reference_step(ref)
        flip_bit(app.sdc_targets()[target], element, bit)
        flip_bit((ref.pos, ref.vel)[target], element, bit)
        for _ in range(40):
            app.step()
            _reference_step(ref)
        _assert_same_bits(app, ref)


class TestPeriodicWrap:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=1, max_size=64))
    @example(_EDGE_PATTERNS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_np_mod_bitwise_except_the_folded_one(self, patterns):
        x = np.array(patterns, dtype=np.uint64).view(np.float64)
        with np.errstate(invalid="ignore"):
            expected = np.mod(x, 1.0)
            got = wrap_unit(x)
        folded = expected == 1.0
        assert (_bits(got[folded]) == _bits(np.zeros(1))).all()
        assert (_bits(got[~folded]) == _bits(expected[~folded])).all()

    def test_tiny_negative_wraps_inside_the_box(self):
        """``np.mod(-2**-60, 1.0)`` rounds to exactly 1.0, which the
        unit-box audit used to report as a false SDC."""
        assert np.mod(-2.0**-60, 1.0) == 1.0
        assert wrap_unit(np.array([-2.0**-60]))[0] == 0.0

        app = ExaskyCampaign(nparticles=1, seed=0)
        # at pos = 0 the force vanishes, so the drift alone moves the
        # particle a hair below the box
        app.pos[0, 0] = 0.0
        app.vel[0, 0] = -2.0**-60 / app.dt
        assert -2.0**-54 < app.dt * app.vel[0, 0] < 0.0
        app.step()
        assert app.pos[0, 0] == 0.0
        app.validate_state()

        ref = ExaskyCampaign(nparticles=1, seed=0)
        ref.pos[0, 0] = 0.0
        ref.vel[0, 0] = -2.0**-60 / ref.dt
        _reference_step(ref)
        assert ref.pos[0, 0] == 1.0
        with pytest.raises(SdcDetected, match="outside the periodic unit box"):
            ref.validate_state()


class TestStepCost:
    def test_is_the_tuned_kernel_sum_on_one_frontier_gcd(self):
        cfg = ExaskyConfig()
        assert campaign_step_cost(cfg) == step_time_per_gpu(
            FRONTIER.node.gpu, cfg, wavefront64_tuned=True)
        assert ExaskyCampaign(nparticles=4, seed=0).step_cost == (
            campaign_step_cost(cfg))
        other = ExaskyConfig(particles_per_gpu=8_000_000)
        assert ExaskyCampaign(nparticles=4, seed=0, cfg=other).step_cost == (
            step_time_per_gpu(FRONTIER.node.gpu, other,
                              wavefront64_tuned=True))
