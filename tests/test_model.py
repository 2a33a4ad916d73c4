import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicflow.model import (
    Constants,
    DomainError,
    DyadicState,
    InvalidInputError,
    ModelParams,
    coercivity_constant,
    cs_constant,
    default_goodbad_threshold,
    dissipation,
    dissipation_direct,
    dissipation_limit,
    dissipation_matrix,
    rhs_full,
    rhs_inviscid,
    slopes,
    telescoped_sum,
    weighted_slopes,
    xs_norm,
)
from dyadicflow.model import _operator_weights, _xs_norms, _xs_weights
from dyadicflow.scenarios import gen_bump, gen_front
from conftest import random_monotone_array, random_monotone_state


def state(a, t=0.0):
    return DyadicState(t=t, a=np.asarray(a, dtype=float))


def _back_substitution_dissipation(a, alpha):
    """The O(K) closed form in scalar Python arithmetic, loop by loop."""
    w, p = _operator_weights(a.size, alpha)
    kmax = a.size - 1
    d = [float(a[j + 1] - a[j]) for j in range(kmax)]
    s = [0.0] * kmax
    acc = 0.0
    for k in range(kmax - 1, -1, -1):
        acc = d[k] + 0.5 * acc
        s[k] = acc
    out = [0.0]
    acc = 0.0
    for j in range(kmax):
        acc += float(p[j + 1]) * d[j]
        out.append(acc)
    for k in range(kmax):
        out[k] -= float(w[k]) * s[k]
    return np.array(out)


monotone_states = st.builds(
    lambda incs, a0: state(np.concatenate([[a0], a0 + np.cumsum(incs)])),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
    st.floats(0.0, 1.0),
)


class TestTypes:
    def test_params_validation(self):
        ModelParams(alpha=0.0, trunc_k=2)
        with pytest.raises(DomainError):
            ModelParams(alpha=-0.1, trunc_k=4)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.25, trunc_k=1)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.25, trunc_k=8, norm_s=0.0)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_norm_index_finite_and_positive(self, s):
        # one rule and one message for the X^s index wherever it is taken
        st_ = state([0.0, 0.5, 1.0])
        for fn in (xs_norm, weighted_slopes):
            with pytest.raises(DomainError, match=f"^s must be finite and > 0, got {s}$"):
                fn(st_, s)
        with pytest.raises(DomainError, match=f"^s must be finite and > 0, got {s}$"):
            cs_constant(s)
        with pytest.raises(DomainError, match=f"^norm_s must be finite and > 0, got {s}$"):
            ModelParams(alpha=0.25, trunc_k=8, norm_s=s)

    def test_state_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            state([0.0, np.nan, 1.0])
        with pytest.raises(InvalidInputError):
            state([0.0, np.inf])

    def test_state_immutable(self):
        s = state([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            s.a[0] = 5.0

    def test_dimension_mismatch_is_invalid_input(self):
        p = ModelParams(alpha=0.25, trunc_k=3)
        with pytest.raises(InvalidInputError):
            dissipation(p, state([0.0, 1.0, 1.0]))

    def test_constants_bundle(self):
        c = Constants.for_model(s=1.0, alpha=0.25, delta=0.5)
        assert c.c_s == pytest.approx(0.5)
        assert c.c_alpha > 0
        assert (c.c_goodbad + 1.0) ** -2 * 2.0**1.5 > 1.0
        with pytest.raises(DomainError):
            Constants(c_s=0.5, c_alpha=1.0, delta=0.5, c_goodbad=10.0)

    def test_default_goodbad_threshold_rule(self):
        for delta in (0.25, 0.5, 0.75):
            c = default_goodbad_threshold(delta)
            assert (1.0 + c) ** 2 == pytest.approx(0.9 * 2.0 ** (delta + 1.0))


class TestDissipation:
    def test_zero_input(self):
        p = ModelParams(alpha=0.25, trunc_k=3)
        out = dissipation(p, state([0, 0, 0, 0]))
        np.testing.assert_array_equal(out, np.zeros(4))

    @pytest.mark.parametrize("c", [1.0, -2.5, 0.37])
    def test_constant_sequence(self, c):
        p = ModelParams(alpha=0.3, trunc_k=4)
        out = dissipation(p, state([c] * 5))
        np.testing.assert_allclose(out, np.zeros(5), atol=1e-14)

    def test_worked_example_plateau(self):
        # alpha=0.25, K=2, a=[0,1,1]: k=0 tail sums to -1; k=1 and k=2 give 1.
        p = ModelParams(alpha=0.25, trunc_k=2)
        s = state([0.0, 1.0, 1.0])
        np.testing.assert_allclose(dissipation(p, s), [-1.0, 1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(dissipation_direct(p, s), [-1.0, 1.0, 1.0])

    def test_fast_equals_direct_random(self, rng):
        for kmax in (2, 3, 17, 128, 1024):
            for alpha in (0.05, 0.15, 0.25, 0.35, 0.45):
                a = random_monotone_array(rng, kmax)
                p = ModelParams(alpha=alpha, trunc_k=kmax)
                s = state(a)
                f = dissipation(p, s)
                d = dissipation_direct(p, s)
                scale = np.max(np.abs(d))
                assert np.max(np.abs(f - d)) <= 1e-12 * scale

    def test_fast_equals_direct_deepest_truncation(self, rng):
        # at K = 2048 the operator values overflow float64 once
        # 2*alpha*K exceeds ~1020, so the equivalence domain is alpha <= 1/4
        for alpha in (0.05, 0.15, 0.24):
            a = random_monotone_array(rng, 2048)
            p = ModelParams(alpha=alpha, trunc_k=2048)
            s = state(a)
            f = dissipation(p, s)
            d = dissipation_direct(p, s)
            assert np.all(np.isfinite(d))
            assert np.max(np.abs(f - d)) <= 1e-12 * np.max(np.abs(d))

    @pytest.mark.parametrize("kmax", [12, 16, 20, 64, 256, 1000, 2048])
    def test_fast_equals_back_substitution_bitwise(self, rng, kmax):
        # S by the scalar recurrence S_k = d_{k+1} + S_{k+1}/2, as a banded
        # back substitution computes it; alpha 0.24 keeps K = 2048 finite
        data = [gen_front(kmax, 4, 1.2, 0.5, 10.0).a, gen_bump(kmax).a,
                random_monotone_array(rng, kmax)]
        for a in data:
            p = ModelParams(alpha=0.24, trunc_k=kmax)
            got = dissipation(p, state(a))
            ref = _back_substitution_dissipation(a, p.alpha)
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_matrix_matches_operator(self, rng):
        for kmax in (12, 1024):
            p = ModelParams(alpha=0.35, trunc_k=kmax)
            m = dissipation_matrix(p)
            a = random_monotone_array(rng, kmax)
            d = dissipation_direct(p, state(a))
            ones = np.ones(kmax + 1)
            if kmax == 12:
                np.testing.assert_allclose(m @ a, d, rtol=1e-12, atol=1e-14)
                # constants in the kernel: row sums vanish
                np.testing.assert_allclose(m @ ones, np.zeros(13), atol=1e-10)
            else:
                # entries reach 2**(0.7 K) ~ 1e216 and (L a)_k crosses zero on
                # random data, where the double sum itself loses digits: both
                # checks are taken relative to the largest value
                assert np.max(np.abs(m @ a - d)) <= 1e-12 * np.max(np.abs(d))
                assert np.max(np.abs(m @ ones)) <= 1e-14 * np.max(np.abs(m))


class TestRhs:
    def test_inviscid_examples(self):
        np.testing.assert_allclose(rhs_inviscid(state([0, 1, 1])), [0, -2, 0])
        np.testing.assert_array_equal(rhs_inviscid(state([0, 0, 0])), [0, 0, 0])
        np.testing.assert_allclose(
            rhs_inviscid(state([0, 0.5, 0.75])), [0, -0.5, -0.25]
        )

    def test_inviscid_zero_component_is_exact(self, rng):
        out = rhs_inviscid(random_monotone_state(rng, 9))
        assert out[0] == 0.0

    def test_full_combines_terms(self):
        p = ModelParams(alpha=0.25, trunc_k=2)
        np.testing.assert_allclose(
            rhs_full(p, state([0, 1, 1])), [1.0, -3.0, -1.0], atol=1e-14
        )
        np.testing.assert_allclose(
            rhs_full(p, state([0, 0, 0])), [0, 0, 0], atol=1e-15
        )

    def test_constant_state_is_equilibrium(self):
        p = ModelParams(alpha=0.4, trunc_k=5)
        np.testing.assert_allclose(
            rhs_full(p, state([0.7] * 6)), np.zeros(6), atol=1e-14
        )

    def test_flat_zero_is_inviscid_equilibrium(self):
        np.testing.assert_array_equal(rhs_inviscid(state([0.0] * 7)), np.zeros(7))

    def test_inviscid_beyond_k1024(self):
        # 2**k is inf from k = 1024, where the bump is flat: 0 * inf must not
        # turn into NaN (which a run would report as an escape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rhs_inviscid(gen_bump(1100))
        assert np.all(np.isfinite(out))
        # bit patterns, so signed zeros count: below k = 1024 this is the
        # plain -d**2 * 2**k, and every zero entry past k = 0 is -0.0
        a = gen_bump(1100).a
        d = np.diff(a)
        plain = -(d[:1023] ** 2) * np.exp2(np.arange(1.0, 1024.0))
        np.testing.assert_array_equal(out[1:1024].view(np.int64), plain.view(np.int64))
        zeros = out[1:][out[1:] == 0.0]
        assert zeros.size == np.count_nonzero(d == 0.0) > 0 and np.signbit(zeros).all()

    def test_full_requires_positive_alpha(self):
        p = ModelParams(alpha=0.0, trunc_k=2)
        with pytest.raises(DomainError):
            rhs_full(p, state([0, 1, 1]))

    @pytest.mark.parametrize("kmax", [2, 16, 64])
    def test_cached_scale_matches_direct_formula(self, rng, kmax):
        # the 2**k scale is cached per size; results stay bitwise equal to
        # the formula that rebuilds it on every call
        from dyadicflow.model import _rhs_inviscid_array

        p = ModelParams(alpha=0.3, trunc_k=kmax)
        for _ in range(3):
            a = random_monotone_array(rng, kmax) * 10.0
            transport = np.diff(a) ** 2 * np.exp2(np.arange(1, a.size, dtype=float))
            assert np.array_equal(_rhs_inviscid_array(a), np.concatenate([[0.0], -transport]))
            full = -dissipation(p, state(a))
            full[1:] -= transport
            assert np.array_equal(rhs_full(p, state(a)), full)

    @pytest.mark.parametrize("kmax", [12, 1100])
    def test_written_in_place(self, rng, kmax):
        # the form that writes into a buffer returns it, bitwise equal to the
        # allocating form and to -d**2 scaled by 2**k, signed zeros included:
        # a zero increment gives -0.0, also at k >= 1024 where 2**k overflows
        from dyadicflow.model import _rhs_inviscid_array

        a = np.repeat(random_monotone_array(rng, kmax), 2)[: kmax + 1]  # every other d is 0
        out = np.full(a.size, np.nan)
        with np.errstate(over="ignore"):
            assert _rhs_inviscid_array(a, out) is out
            allocated = _rhs_inviscid_array(a)
            expected = np.ldexp(-np.diff(a) ** 2, np.arange(1, a.size))
        assert out.tobytes() == allocated.tobytes() == np.append(0.0, expected).tobytes()
        assert np.signbit(out[1:][np.diff(a) == 0.0]).all()


class TestNormsAndSlopes:
    def test_xs_norm_examples(self):
        assert xs_norm(state([0, 0, 0]), 1.7) == 0.0
        assert xs_norm(state([0, 1, 1.5]), 1.0) == pytest.approx(3.5)
        # sup|a| = 1 plus the k=1 difference 1 * 2**2 = 4
        assert xs_norm(state([0, 1, 1]), 2.0) == pytest.approx(5.0)

    def test_xs_norm_requires_positive_s(self):
        with pytest.raises(DomainError):
            xs_norm(state([0, 1]), 0.0)

    def test_slopes_examples(self):
        np.testing.assert_allclose(slopes(state([0, 0.5, 0.75])), [0, 1, 1])
        np.testing.assert_array_equal(slopes(state([0, 0, 0])), [0, 0, 0])
        np.testing.assert_allclose(slopes(state([0, 1, 1])), [0, 2, 0])

    def test_weighted_slopes_examples(self):
        s = state([0, 0.5, 0.75])
        np.testing.assert_allclose(weighted_slopes(s, 1.0), slopes(s))
        np.testing.assert_allclose(weighted_slopes(s, 2.0), [0, 2, 4])
        np.testing.assert_array_equal(
            weighted_slopes(state([0, 0, 0]), 2.0), [0, 0, 0]
        )

    def test_weighted_slope_cross_consistency(self, rng):
        for s_idx in (1.0, 1.5, 2.0):
            st_ = random_monotone_state(rng, 20)
            b = slopes(st_)
            bs = weighted_slopes(st_, s_idx)
            karr = np.arange(21, dtype=float)
            expect = b * np.exp2((s_idx - 1.0) * karr)
            np.testing.assert_allclose(bs, expect, rtol=1e-14)

    @pytest.mark.parametrize(
        "a, norm",
        [(gen_bump(1024).a, 3.53125), (np.linspace(0.0, 7000.0, 701), math.inf)],
        ids=["bump_k1024", "steep_ramp_k700"],
    )
    def test_overflowing_weights_do_not_warn(self, a, norm):
        # 2**(1.5 k) overflows from k = 683, and on the ramp |d| * 2**(1.5 k)
        # overflows below that; the suite turns a leaked RuntimeWarning into
        # an error
        st_ = state(a)
        assert xs_norm(st_, 1.5) == norm
        bs = weighted_slopes(st_, 1.5)
        d = np.diff(a)
        expect = np.zeros(a.size)
        nz = np.flatnonzero(d) + 1
        with np.errstate(over="ignore"):
            assert norm == float(_xs_norms(a, d, 1.5))
            expect[nz] = d[nz - 1] * _xs_weights(a.size, 1.5)[nz - 1]
        np.testing.assert_array_equal(bs, expect)

    def test_slopes_beyond_k1024(self):
        # 2**k is inf from k = 1024; the bump is flat there, and 0 * inf
        # must not turn into a NaN (nor warn: the suite makes that an error)
        a = gen_bump(1100).a
        b = slopes(state(a))
        d = np.diff(a)
        assert np.isfinite(b).all()
        assert b[0] == 0.0 and np.all(b[1:][d == 0.0] == 0.0)
        np.testing.assert_array_equal(b[1:1024], d[:1023] * np.exp2(np.arange(1.0, 1024.0)))

    def test_slopes_keep_signed_zeros(self):
        a = np.array([0.0, -0.0, 0.5, 0.5, 0.75])
        assert [math.copysign(1.0, x) for x in slopes(state(a))] == [1.0, -1.0, 1.0, 1.0, 1.0]


class TestConstants:
    def test_cs_values(self):
        assert cs_constant(1.0) == pytest.approx(0.5, abs=1e-15)
        assert cs_constant(2.0) == pytest.approx(3.0 / 14.0, abs=1e-15)

    def test_cs_monotone_decay(self):
        vals = [cs_constant(s) for s in (1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_coercivity_value(self):
        c = coercivity_constant(0.25)
        assert c == pytest.approx(2.0**-0.5 / (2.0**0.5 - 1.0))
        assert c == pytest.approx(1.70711, abs=1e-5)

    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_coercivity_identity_small_k(self, k):
        alpha = 0.25
        ta = 2 * alpha
        lhs = (2.0 ** (ta * (k - 1)) - 1.0) / (2.0**ta - 1.0)
        rhs = coercivity_constant(alpha) * (2.0 ** (ta * k) - 2.0**ta)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_coercivity_identity_random_k(self, rng):
        for _ in range(50):
            alpha = float(rng.uniform(0.02, 0.48))
            k = int(rng.integers(2, 31))
            ta = 2 * alpha
            lhs = (2.0 ** (ta * (k - 1)) - 1.0) / (2.0**ta - 1.0)
            rhs = coercivity_constant(alpha) * (2.0 ** (ta * k) - 2.0**ta)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_coercivity_domain(self):
        with pytest.raises(DomainError):
            coercivity_constant(0.0)
        with pytest.raises(DomainError):
            coercivity_constant(0.5)
        # pole near zero is documented, values just above the bound are valid
        assert coercivity_constant(1e-6) > 1e5


class TestTelescopedIdentity:
    def test_worked_example_exact_zero(self):
        p = ModelParams(alpha=0.25, trunc_k=2)
        assert telescoped_sum(p, state([0, 1, 1])) == 0.0

    def test_constant_state(self):
        p = ModelParams(alpha=0.3, trunc_k=6)
        assert telescoped_sum(p, state([2.0] * 7)) == 0.0

    def test_random_monotone_states(self, rng):
        for alpha in (0.1, 0.25, 0.4):
            for _ in range(100):
                kmax = int(rng.integers(2, 40))
                s = random_monotone_state(rng, kmax)
                p = ModelParams(alpha=alpha, trunc_k=kmax)
                bound = 1e-10 * (1.0 + xs_norm(s, 1.0))
                assert abs(telescoped_sum(p, s)) <= bound


class TestDissipationLimit:
    def test_constant(self):
        p = ModelParams(alpha=0.25, trunc_k=4)
        assert dissipation_limit(p, state([1.0] * 5)) == 0.0

    def test_worked_example(self):
        p = ModelParams(alpha=0.25, trunc_k=2)
        assert dissipation_limit(p, state([0, 1, 1])) == pytest.approx(1.0)

    def test_monotone_nonnegative(self, rng):
        p = ModelParams(alpha=0.35, trunc_k=15)
        for _ in range(20):
            assert dissipation_limit(p, random_monotone_state(rng, 15)) >= 0.0


class TestCoercivityInequality:
    """Operator-difference lower bound at indices with a dominant slope."""

    @staticmethod
    def engineered_state(rng, kmax, k_dom, s):
        # random small increments plus one dominant increment at k_dom,
        # boosted until b_{k,s} > c_s * ||a||_{X^s}
        inc = rng.random(kmax) * 0.2 * 2.0 ** (-s * np.arange(1, kmax + 1))
        cs = cs_constant(s)
        for _ in range(60):
            a = np.concatenate([[0.0], np.cumsum(inc)])
            st_ = state(a)
            bks = weighted_slopes(st_, s)[k_dom]
            norm = xs_norm(st_, s)
            if bks > cs * norm * 1.000001:
                return st_
            inc[k_dom - 1] *= 1.7
        raise AssertionError("failed to engineer dominance")

    def test_difference_inequality(self, rng):
        for s in (1.0, 1.5):
            for alpha in (0.15, 0.3, 0.45):
                for _ in range(25):
                    kmax = int(rng.integers(4, 16))
                    k = int(rng.integers(2, kmax + 1))
                    st_ = self.engineered_state(rng, kmax, k, s)
                    p = ModelParams(alpha=alpha, trunc_k=kmax)
                    op = dissipation(p, st_)
                    lhs = (op[k] - op[k - 1]) * 2.0 ** (s * k)
                    bks = weighted_slopes(st_, s)[k]
                    ta = 2 * alpha
                    rhs = coercivity_constant(alpha) * (2.0 ** (ta * k) - 2.0**ta) * bks
                    assert lhs >= rhs - 1e-10


@settings(max_examples=60, deadline=None)
@given(s=monotone_states, alpha=st.sampled_from([0.1, 0.25, 0.4]))
def test_property_telescoped_identity(s, alpha):
    p = ModelParams(alpha=alpha, trunc_k=s.k)
    bound = 1e-10 * (1.0 + xs_norm(s, 1.0))
    assert abs(telescoped_sum(p, s)) <= bound


@settings(max_examples=60, deadline=None)
@given(s=monotone_states, alpha=st.sampled_from([0.05, 0.25, 0.45]))
def test_property_fast_equals_direct(s, alpha):
    p = ModelParams(alpha=alpha, trunc_k=s.k)
    f = dissipation(p, s)
    d = dissipation_direct(p, s)
    scale = max(np.max(np.abs(d)), 1e-300)
    assert np.max(np.abs(f - d)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(s=monotone_states)
def test_property_constant_shift_invariance(s):
    # adding a constant leaves the operator unchanged (constants in kernel)
    p = ModelParams(alpha=0.3, trunc_k=s.k)
    shifted = DyadicState(t=0.0, a=s.a + 1.0)
    d0 = dissipation(p, s)
    d1 = dissipation(p, shifted)
    scale = 1.0 + np.max(np.abs(d0))
    assert np.max(np.abs(d0 - d1)) <= 1e-9 * scale
