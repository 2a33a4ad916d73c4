import math

import numpy as np
import pytest

from dyadicflow.model import DomainError, DyadicState
from dyadicflow.analysis import check_monotone_nonneg, front_index
from dyadicflow.scenarios import (
    gen_bump,
    gen_front,
    gen_geometric,
    profile_reconstruction,
)


class TestBump:
    def test_closed_form_values(self):
        s = gen_bump(12)
        assert s.a[0] == 0.0
        assert s.a[1] == pytest.approx((1.0 - 0.25) ** 2)
        assert s.a[2] == pytest.approx((1.0 - 1.0 / 16.0) ** 2)

    def test_strictly_monotone(self):
        s = gen_bump(16)
        assert np.all(np.diff(s.a) > 0.0)
        assert check_monotone_nonneg(s).passed

    def test_approaches_one(self):
        assert gen_bump(12).a[-1] >= 1.0 - 1e-6
        assert gen_bump(20).a[-1] >= 1.0 - 1e-10

    def test_requires_k2(self):
        with pytest.raises(DomainError):
            gen_bump(1)


class TestFront:
    def test_worked_example_slopes(self):
        s = gen_front(6, 3, 1.3, 0.5)
        from dyadicflow.model import slopes

        b = slopes(s)
        expect = [0.0, 1.3, 1.69, 2.197, 1.0985, 0.54925, 0.274625]
        np.testing.assert_allclose(b, expect, rtol=1e-12)
        assert front_index(s) == 3

    def test_ratio_bounded_by_q(self):
        s = gen_front(10, 5, 1.25, 0.5)
        from dyadicflow.analysis import slope_ratio_report

        rep = slope_ratio_report(s)
        assert rep.max_ratio == pytest.approx(1.25, rel=1e-12)
        assert rep.max_ratio < math.sqrt(2.0)

    def test_admissible(self):
        s = gen_front(10, 4, 1.3, 0.7)
        assert check_monotone_nonneg(s).passed
        assert s.a[0] == 0.0

    def test_structure_at_time_zero(self):
        from dyadicflow.analysis import _split_margins
        from dyadicflow.model import slopes

        b = slopes(gen_front(12, 5, 1.3, 0.5))
        assert np.all(np.diff(b[1:6]) > 0.0)  # b_1 < ... < b_k0
        margins = _split_margins(b)
        assert margins[4] > 0.0  # split exactly at k0 = 5

    @pytest.mark.parametrize(
        "k0,q,r", [(1, 1.2, 0.5), (6, 1.0, 0.5), (6, 1.5, 0.5), (6, 1.2, 1.0)]
    )
    def test_domain_errors(self, k0, q, r):
        with pytest.raises(DomainError):
            gen_front(6, k0, q, r)

    def test_amplitude_scales_slopes(self):
        from dyadicflow.model import slopes

        unit = slopes(gen_front(8, 3, 1.3, 0.5))
        scaled = slopes(gen_front(8, 3, 1.3, 0.5, amplitude=7.0))
        np.testing.assert_allclose(scaled, 7.0 * unit, rtol=1e-14)
        with pytest.raises(DomainError):
            gen_front(8, 3, 1.3, 0.5, amplitude=0.0)

    def test_structure_check_passes_for_all_valid_parameters(self):
        # every (q, r) in the generator's domain yields data that the
        # front-structure check accepts at time zero
        from dyadicflow.analysis import check_sqrt2_structure
        from dyadicflow.integrate import StepControls, integrate
        from dyadicflow.model import ModelParams

        p = ModelParams(alpha=0.3, trunc_k=10, norm_s=1.5)
        for q in (1.05, 1.2, 1.41):
            for r in (0.1, 0.5, 0.9):
                s0 = gen_front(10, 4, q, r)
                traj = integrate(p, s0, 0.0, StepControls())
                assert check_sqrt2_structure(traj).passed, (q, r)


class TestGeometric:
    def test_partial_sums(self):
        s = gen_geometric(3, 0.5)
        np.testing.assert_allclose(s.a, np.array([0, 1, 1.5, 1.75]) / 1.75, rtol=1e-14)

    def test_small_rate_limit(self):
        s = gen_geometric(4, 1e-9)
        np.testing.assert_allclose(s.a, [0, 1, 1, 1, 1], atol=1e-8)

    def test_admissible(self):
        for rate in (0.1, 0.5, 0.9):
            s = gen_geometric(8, rate)
            assert check_monotone_nonneg(s).passed
            assert s.a[-1] == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_geometric(6, 0.0)
        with pytest.raises(DomainError):
            gen_geometric(6, 1.0)


class TestProfileReconstruction:
    def test_worked_example(self):
        x, y = profile_reconstruction(DyadicState(t=0.0, a=[0.0, 1.0, 1.5]))
        assert list(zip(x.tolist(), y.tolist())) == [(0.25, 1.5), (0.5, 1.0), (1.0, 0.0)]

    def test_flat_profile(self):
        _, y = profile_reconstruction(DyadicState(t=0.0, a=[0.0, 0.0, 0.0]))
        assert y.tolist() == [0.0, 0.0, 0.0]

    def test_x_strictly_increasing(self):
        xs, _ = profile_reconstruction(gen_bump(10))
        xs = xs.tolist()
        assert all(x1 > x0 for x0, x1 in zip(xs, xs[1:]))
