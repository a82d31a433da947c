"""Tests for the attractor-regularized NTF.

The update step and the cost are both re-derived in plain Python loops with a
scalar GKL reference, so the vectorized einsum code is checked element by
element.  The single-array special case must reproduce the NMF baseline
exactly; that equivalence gets its own test here and again in acceptance.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spotform.gkl import EPS
from spotform.nmf import (
    ConcatMatrix,
    FrameMask,
    NmfModel,
    build_concat,
    fit_nmf,
    nmf_wiener,
)
from spotform.ntf import (
    Assignment,
    NtfModel,
    PropTensor,
    RegularizationSchedule,
    assign_attractors,
    build_attractors,
    build_prop_tensor,
    evaluate_cost,
    fit_ntf,
    initial_model,
    masked_wiener,
    ntf_wiener,
    update_step,
)
from spotform.signal import ComplexSpectrogram, StftConfig


def random_bf_output(rng, I=6, J=5, A=2):
    vals = rng.standard_normal((I, J, A)) + 1j * rng.standard_normal((I, J, A))
    # drawn (I, J, A), so each seeded test keeps the numbers it was written for
    vals = vals.transpose(2, 0, 1)
    cfg = StftConfig(window_length_ms=(I - 1) * 2 / 16, hop_ms=(I - 1) / 16)
    return ComplexSpectrogram(vals, cfg, J * cfg.hop)


def random_model(rng, A=2, I=4, J=3, K=3):
    Z = rng.uniform(0.1, 1.0, size=(A, K))
    Z /= Z.sum(axis=0, keepdims=True)
    T = rng.uniform(0.1, 1.0, size=(I, K))
    T /= T.sum(axis=0, keepdims=True)
    V = rng.uniform(0.1, 2.0, size=(J, K))
    return NtfModel(Z=Z, T=T, V=V)


def gkl_scalar(b, a):
    if b == 0.0:
        return a
    if a == 0.0:
        return math.inf
    return b * math.log(b / a) - b + a


def brute_force_cost(model, c, P, mu):
    A, I, J = c.shape
    K = model.K
    total = 0.0
    for a in range(A):
        for i in range(I):
            for j in range(J):
                chat = sum(
                    model.Z[a, k] * model.T[i, k] * model.V[j, k] for k in range(K)
                )
                total += gkl_scalar(c[a, i, j], max(chat, EPS))
    for k in range(K):
        total += mu * min(
            sum(gkl_scalar(P[a, b], model.Z[a, k]) for a in range(A))
            for b in range(P.shape[1])
        )
    return total


def brute_force_step(model, c, P, mu):
    """The composite iteration written as plain loops, same stage order."""
    Z, T, V = model.Z.copy(), model.T.copy(), model.V.copy()
    (A, K), I, J = Z.shape, T.shape[0], V.shape[0]

    def chat(a, i, j):
        return max(sum(Z[a, k] * T[i, k] * V[j, k] for k in range(K)), EPS)

    def dist(b, k):
        return sum(gkl_scalar(P[a, b], Z[a, k]) for a in range(A))

    b_hit = [
        min(range(P.shape[1]), key=lambda b: (dist(b, k), b)) for k in range(K)
    ]

    Z_new = np.empty_like(Z)
    for a in range(A):
        for k in range(K):
            num = (
                Z[a, k]
                * sum(
                    c[a, i, j] * T[i, k] * V[j, k] / chat(a, i, j)
                    for i in range(I)
                    for j in range(J)
                )
                + mu * P[a, b_hit[k]]
            )
            den = max(sum(T[:, k]) * sum(V[:, k]) + mu, EPS)
            Z_new[a, k] = num / den
    Z = Z_new
    for k in range(K):
        scale = max(sum(Z[:, k]), EPS)
        Z[:, k] /= scale
        V[:, k] *= scale

    T_new = np.empty_like(T)
    for i in range(I):
        for k in range(K):
            num = sum(
                c[a, i, j] * Z[a, k] * V[j, k] / chat(a, i, j)
                for a in range(A)
                for j in range(J)
            )
            T_new[i, k] = T[i, k] * num / max(sum(Z[:, k]) * sum(V[:, k]), EPS)
    T = T_new
    for k in range(K):
        scale = max(sum(T[:, k]), EPS)
        T[:, k] /= scale
        V[:, k] *= scale

    V_new = np.empty_like(V)
    for j in range(J):
        for k in range(K):
            num = sum(
                c[a, i, j] * Z[a, k] * T[i, k] / chat(a, i, j)
                for a in range(A)
                for i in range(I)
            )
            V_new[j, k] = V[j, k] * num / max(sum(Z[:, k]) * sum(T[:, k]), EPS)
    return NtfModel(Z=Z, T=T, V=V_new)


class TestBuildPropTensor:
    def test_index_arithmetic(self):
        rng = np.random.default_rng(0)
        Y = random_bf_output(rng)
        C = build_prop_tensor(Y)
        mags = np.abs(Y.values)
        assert C.values.shape == (2, 6, 5)
        for a in range(2):
            for i in range(6):
                for j in range(5):
                    assert C.values[a, i, j] == mags[a, i, j]

    def test_kernel_unfolding_is_a_view(self):
        # the (A*I, J) unfolding the kernel divides in every step
        Y = random_bf_output(np.random.default_rng(0), I=6, J=5, A=3)
        C = build_prop_tensor(Y)
        assert np.shares_memory(C.values.reshape(3 * 6, 5), C.values)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="array, bin, frame"):
            PropTensor(np.ones((3, 4)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PropTensor(-np.ones((2, 3, 4)))


class TestBuildAttractors:
    def test_structure(self):
        P = build_attractors(3)
        assert P.shape == (3, 4)
        assert_allclose(P[:, 0], 1.0 / 3.0)
        assert_allclose(P[:, 1:], np.eye(3))

    def test_columns_are_simplex(self):
        for A in (1, 2, 5):
            P = build_attractors(A)
            assert_allclose(P.sum(axis=0), 1.0)

    def test_rejects_zero_arrays(self):
        with pytest.raises(ValueError):
            build_attractors(0)


class TestAssignAttractors:
    def test_uniform_column_is_target(self):
        out = assign_attractors(np.array([[0.5], [0.5]]))
        assert out.b[0] == 0 and out.h[0] == 1

    def test_skewed_column_goes_local(self):
        P = build_attractors(2)
        Z = np.array([[0.9], [0.1]])
        out = assign_attractors(Z)
        dists = [
            sum(gkl_scalar(P[a, b], Z[a, 0]) for a in range(2))
            for b in range(3)
        ]
        assert out.b[0] == int(np.argmin(dists)) == 1
        assert out.h[0] == 0

    def test_one_hot_matches_its_array(self):
        out = assign_attractors(np.array([[0.0], [0.0], [1.0]]))
        assert out.b[0] == 3

    def test_zero_entry_excludes_positive_attractors(self):
        # z = (1, 0): infinite divergence from the uniform attractor
        out = assign_attractors(np.array([[1.0], [0.0]]))
        assert out.b[0] == 1

    def test_all_infinite_falls_back_to_target(self):
        out = assign_attractors(np.zeros((2, 1)))
        assert out.b[0] == 0 and out.h[0] == 1

    def test_tie_prefers_smallest_index(self):
        # with one array both attractors coincide, so every column ties
        out = assign_attractors(np.array([[0.7, 1.0]]))
        assert np.all(out.b == 0)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        A, K = 3, 24
        Z = rng.uniform(0.0, 1.0, size=(A, K))
        Z[rng.uniform(size=Z.shape) < 0.25] = 0.0
        Z[0, Z.sum(axis=0) == 0.0] = 1.0
        Z /= Z.sum(axis=0, keepdims=True)
        P = build_attractors(A)
        out = assign_attractors(Z)
        for k in range(K):
            dists = [
                sum(gkl_scalar(P[a, b], Z[a, k]) for a in range(A))
                for b in range(A + 1)
            ]
            expect = min(range(A + 1), key=lambda b: (dists[b], b))
            assert out.b[k] == expect
            assert out.h[k] == (1 if expect == 0 else 0)


# the column (x, rest split evenly) goes to the target iff x lies in (low,
# high): at A = 2 iff x/(1 - x) and (1 - x)/x are below 4, and at A = 3, for
# x >= 1/3 (the uniform column), iff 2x/(1 - x) < 3^(3/2)
X3 = math.sqrt(27 / 4) / (1 + math.sqrt(27 / 4))
TARGET_RANGE = {2: (0.2, 0.8), 3: (1 / 3, X3)}


def _split_column(A: int, x: float) -> np.ndarray:
    return np.array([[x]] + [[(1 - x) / (A - 1)]] * (A - 1))


def _picks_target(A: int, x: float) -> bool:
    return assign_attractors(_split_column(A, x)).h[0] == 1


class TestTargetBoundary:
    def test_three_array_bound(self):
        assert X3 == pytest.approx(0.722074, abs=1e-6)

    @pytest.mark.parametrize("A, bound, inward", [
        (2, 0.2, 1.0), (2, 0.8, -1.0), (3, X3, -1.0)])
    def test_pick_flips_at_the_bound(self, A, bound, inward):
        assert _picks_target(A, bound + 1e-6 * inward)
        assert not _picks_target(A, bound - 1e-6 * inward)

    @settings(deadline=None, max_examples=200)
    @given(A=st.sampled_from([2, 3]), u=st.floats(0.0, 1.0))
    def test_target_iff_inside_the_range(self, A, u):
        low, high = TARGET_RANGE[A]
        x = u if A == 2 else low + (1.0 - low) * u
        # float64 cannot decide a column on the bound itself
        assume(min(abs(x - low), abs(x - high)) > 1e-9)
        assert _picks_target(A, x) == (low < x < high)


class TestUpdateStep:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, A=2, I=3, J=2, K=2)
        c = rng.uniform(0.0, 2.0, size=(2, 3, 2))
        c[0, 1, 1] = 0.0  # exercise the zero-data branch
        P = build_attractors(2)
        for mu in (0.0, 0.7, 50.0):
            got = update_step(model, PropTensor(c), mu)
            want = brute_force_step(model, c, P, mu)
            assert_allclose(got.Z, want.Z, rtol=0, atol=1e-12)
            assert_allclose(got.T, want.T, rtol=0, atol=1e-12)
            assert_allclose(got.V, want.V, rtol=0, atol=1e-12)

    def test_exact_model_with_attractor_allocations_is_fixed_point(self):
        rng = np.random.default_rng(5)
        P = build_attractors(2)
        T = rng.uniform(0.1, 1.0, size=(5, 3))
        T /= T.sum(axis=0, keepdims=True)
        V = rng.uniform(0.5, 1.5, size=(4, 3))
        model = NtfModel(Z=P.copy(), T=T, V=V)
        C = PropTensor(model.compose())
        out = update_step(model, C, mu=37.5)
        assert_allclose(out.Z, model.Z, rtol=0, atol=1e-12)
        assert_allclose(out.T, model.T, rtol=0, atol=1e-12)
        assert_allclose(out.V, model.V, rtol=0, atol=1e-12)

    def test_huge_mu_snaps_allocations_onto_attractors(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, A=3, I=4, J=3, K=5)
        c = rng.uniform(0.0, 1.0, size=(3, 4, 3))
        P = build_attractors(3)
        hit = assign_attractors(model.Z)
        out = update_step(model, PropTensor(c), mu=1e9)
        for k in range(5):
            target = P[:, hit.b[k]]
            assert np.abs(out.Z[:, k] - target).sum() < 1e-6

    def test_simplex_preserved(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, A=2, I=6, J=5, K=4)
        c = rng.uniform(0.0, 1.0, size=(2, 6, 5))
        out = update_step(model, PropTensor(c), mu=3.0)
        assert_allclose(out.Z.sum(axis=0), 1.0, atol=1e-12)
        assert_allclose(out.T.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(out.V >= 0)

    def test_nonfinite_factors_raise(self):
        rng = np.random.default_rng(17)
        model = random_model(rng)
        c = rng.uniform(0.0, 1.0, size=(2, 4, 3))
        c[0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="iteration 3"):
                update_step(model, PropTensor(c), 0.0, iteration=3)


class TestEvaluateCost:
    def test_exact_fit_on_attractors_costs_nothing(self):
        rng = np.random.default_rng(19)
        P = build_attractors(2)
        T = rng.uniform(0.1, 1.0, size=(4, 3))
        T /= T.sum(axis=0, keepdims=True)
        V = rng.uniform(0.5, 1.5, size=(3, 3))
        model = NtfModel(Z=P.copy(), T=T, V=V)
        C = PropTensor(model.compose())
        assert abs(evaluate_cost(model, C, mu=123.0)) < 1e-9

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, A=2, I=3, J=4, K=3)
        c = rng.uniform(0.0, 2.0, size=(2, 3, 4))
        c[1, 2, 0] = 0.0
        P = build_attractors(2)
        for mu in (0.0, 2.5):
            got = evaluate_cost(model, PropTensor(c), mu)
            want = brute_force_cost(model, c, P, mu)
            assert got == pytest.approx(want, rel=1e-12)

    def test_scaling_a_column_into_v_leaves_composition_unchanged(self):
        rng = np.random.default_rng(29)
        model = random_model(rng, A=2, I=4, J=3, K=3)
        alpha = 3.7
        scaled = NtfModel(
            Z=model.Z * np.array([1.0, alpha, 1.0]),
            T=model.T,
            V=model.V / np.array([1.0, alpha, 1.0]),
        )
        assert_allclose(scaled.compose(), model.compose(), rtol=1e-10)


class TestFitNtf:
    def test_cost_nonincreasing_within_each_segment(self):
        # the cost of each iterate at the weight of its iteration
        rng = np.random.default_rng(31)
        C = PropTensor(rng.uniform(0.0, 1.0, size=(2, 10, 8)))
        sched = RegularizationSchedule(mu=50.0, warmup_iterations=20,
                                       total_iterations=60)
        model, costs = initial_model(2, 10, 8, K=4, seed=3), []
        for it in range(sched.total_iterations):
            w = sched.weight_at(it)
            model = update_step(model, C, w, iteration=it)
            costs.append(evaluate_cost(model, C, w))
        costs = np.array(costs)
        for seg in (costs[:20], costs[20:]):
            slack = 1e-9 * np.maximum(1.0, np.abs(seg[:-1]))
            assert np.all(np.diff(seg) <= slack)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(37)
        C = PropTensor(rng.uniform(0.0, 1.0, size=(2, 6, 5)))
        sched = RegularizationSchedule(mu=10.0, warmup_iterations=3,
                                       total_iterations=8)
        m1, a1 = fit_ntf(C, K=3, schedule=sched, seed=9)
        m2, a2 = fit_ntf(C, K=3, schedule=sched, seed=9)
        assert np.array_equal(m1.Z, m2.Z)
        assert np.array_equal(m1.T, m2.T)
        assert np.array_equal(m1.V, m2.V)
        assert np.array_equal(a1.b, a2.b)

    def test_rejects_bad_k(self):
        C = PropTensor(np.ones((2, 3, 4)))
        sched = RegularizationSchedule(mu=0.0, warmup_iterations=0,
                                       total_iterations=1)
        with pytest.raises(ValueError):
            fit_ntf(C, K=0, schedule=sched)

    def test_recovers_planted_allocations(self):
        # one basis per class; strong late regularization snaps Z back on
        rng = np.random.default_rng(41)
        P = build_attractors(2)
        T = rng.uniform(0.0, 1.0, size=(8, 3))
        T /= T.sum(axis=0, keepdims=True)
        V = rng.uniform(0.5, 2.0, size=(12, 3))
        planted = NtfModel(Z=P.copy(), T=T, V=V)
        C = PropTensor(planted.compose())
        sched = RegularizationSchedule(mu=1000.0, warmup_iterations=50,
                                       total_iterations=100)
        model, _ = fit_ntf(C, K=3, schedule=sched, seed=0)
        dist = np.abs(model.Z[:, :, None] - P[:, None, :]).sum(axis=0)
        assert np.all(dist.min(axis=1) < 1e-3)


class TestNtfWiener:
    def test_all_target_mask_is_identity(self):
        rng = np.random.default_rng(43)
        Y = random_bf_output(rng, I=6, J=5, A=2)
        model = random_model(rng, A=2, I=6, J=5, K=3)
        assign = Assignment(b=np.zeros(3, dtype=np.int64),
                            h=np.ones(3, dtype=np.int64))
        out = ntf_wiener(model, assign, Y)
        for a in range(2):
            assert np.array_equal(out.values[a], Y.values[a])

    def test_empty_target_class_warns_and_silences(self):
        rng = np.random.default_rng(47)
        Y = random_bf_output(rng, I=6, J=5, A=2)
        model = random_model(rng, A=2, I=6, J=5, K=3)
        assign = Assignment(b=np.array([1, 2, 1]), h=np.zeros(3, dtype=np.int64))
        with pytest.warns(UserWarning, match="target class"):
            out = ntf_wiener(model, assign, Y)
        for a in range(2):
            assert np.all(out.values[a] == 0)

    def test_hand_evaluated_gain(self):
        rng = np.random.default_rng(53)
        Y = random_bf_output(rng, I=3, J=1, A=1)
        Y.values[:] = 2.0 + 0j
        model = NtfModel(
            Z=np.array([[1.0, 1.0]]),
            T=np.tile([[0.4, 0.6]], (3, 1)) / 3.0,
            V=np.array([[0.5, 0.25]]),
        )
        assign = Assignment(b=np.array([0, 1]), h=np.array([1, 0]))
        out = ntf_wiener(model, assign, Y)
        num = (0.4 / 3 * 0.5) ** 2
        den = num + (0.6 / 3 * 0.25) ** 2
        assert_allclose(out.values[0], (num / den) * 2.0, rtol=0, atol=1e-12)

    def test_gain_never_amplifies(self):
        rng = np.random.default_rng(59)
        Y = random_bf_output(rng, I=6, J=5, A=3)
        model = random_model(rng, A=3, I=6, J=5, K=4)
        assign = Assignment(b=np.array([0, 1, 0, 3]), h=np.array([1, 0, 1, 0]))
        out = ntf_wiener(model, assign, Y)
        for a in range(3):
            assert np.all(np.abs(out.values[a]) <= np.abs(Y.values[a]) + 1e-12)


class TestSchedule:
    def test_weight_switches_after_warmup(self):
        sched = RegularizationSchedule(mu=7.0, warmup_iterations=2,
                                       total_iterations=5)
        assert [sched.weight_at(i) for i in range(5)] == [0.0, 0.0, 7.0, 7.0, 7.0]

    def test_rejects_negative_mu(self):
        for mu in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                RegularizationSchedule(mu=mu)

    def test_rejects_warmup_beyond_total(self):
        with pytest.raises(ValueError, match="warmup"):
            RegularizationSchedule(mu=1.0, warmup_iterations=5,
                                   total_iterations=3)

    def test_rejects_zero_total(self):
        # zero steps would leave the seeded random start as the fit
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            RegularizationSchedule(mu=1.0, warmup_iterations=0,
                                   total_iterations=0)


def test_single_array_reduces_to_nmf():
    """With A = 1 and mu = 0 the tensor updates collapse onto the baseline."""
    rng = np.random.default_rng(61)
    Y = random_bf_output(rng, I=6, J=5, A=1)
    sched = RegularizationSchedule(mu=0.0, warmup_iterations=0,
                                   total_iterations=7)
    nmf = fit_nmf(build_concat(Y), K=4, iterations=7, seed=42)
    ntf, _ = fit_ntf(build_prop_tensor(Y), K=4, schedule=sched, seed=42)
    assert_allclose(ntf.Z, 1.0, rtol=0, atol=1e-12)
    assert_allclose(ntf.T, nmf.T, rtol=0, atol=1e-12)
    assert_allclose(ntf.V, nmf.V, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    A=st.integers(min_value=1, max_value=3),
    I=st.integers(min_value=2, max_value=6),
    J=st.integers(min_value=2, max_value=6),
    K=st.integers(min_value=1, max_value=4),
    mu=st.sampled_from([0.0, 0.1, 10.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_update_never_increases_cost(A, I, J, K, mu, seed):
    rng = np.random.default_rng(seed)
    C = PropTensor(rng.uniform(0.0, 1.0, size=(A, I, J)))
    model = random_model(rng, A=A, I=I, J=J, K=K)
    before = evaluate_cost(model, C, mu)
    after = evaluate_cost(update_step(model, C, mu), C, mu)
    assert after <= before + 1e-9 * max(1.0, abs(before))


@pytest.mark.parametrize("A", [1, 2, 3])
@pytest.mark.parametrize("mu", [0.0, 5.0])
def test_trace_matches_cost_of_each_iterate(A, mu):
    """fit_ntf equals update_step iterated over its schedule, bit for bit,
    and the scalar step iterated from an independently drawn start to 1e-9;
    a short fit_nmf of the same data's concatenation matches the scalar step
    at A = 1, mu = 0."""
    rng = np.random.default_rng(71 + A)
    I, J, K, seed = 7, 9, 3, 5
    c = rng.uniform(0.0, 2.0, size=(A, I, J))
    c[rng.uniform(size=c.shape) < 0.2] = 0.0  # exact zeros: the c = 0 branch
    C = PropTensor(c)
    sched = RegularizationSchedule(mu=mu, warmup_iterations=4,
                                   total_iterations=10)
    model, assignment = fit_ntf(C, K, sched, seed=seed)

    ref, P = initial_model(A, I, J, K, seed), build_attractors(A)
    for it in range(sched.total_iterations):
        ref = update_step(ref, C, sched.weight_at(it), iteration=it)
    for got, exp in ((model.Z, ref.Z), (model.T, ref.T), (model.V, ref.V)):
        assert np.array_equal(got, exp)
    assert np.array_equal(assignment.b, assign_attractors(ref.Z).b)

    def seeded_start(A, I, J):
        # one generator draws T, then V; T's columns on the simplex
        draw = np.random.default_rng(seed)
        T = draw.uniform(0.0, 1.0, size=(I, K))
        V = draw.uniform(0.0, 1.0, size=(J, K))
        return NtfModel(Z=np.full((A, K), 1.0 / A), T=T / T.sum(axis=0),
                        V=V)

    scalar = seeded_start(A, I, J)
    for w in [0.0] * 4 + [mu] * 6:
        scalar = brute_force_step(scalar, c, P, w)
    for got, exp in ((model.Z, scalar.Z), (model.T, scalar.T),
                     (model.V, scalar.V)):
        assert_allclose(got, exp, rtol=1e-9, atol=0)

    concat = c.transpose(1, 0, 2).reshape(I, A * J)
    nmf = fit_nmf(ConcatMatrix(concat, A, J), K, iterations=5, seed=seed)
    scalar = seeded_start(1, I, A * J)
    for _ in range(5):
        scalar = brute_force_step(scalar, concat[None], np.ones((1, 2)), 0.0)
    assert_allclose(nmf.T, scalar.T, rtol=1e-9, atol=0)
    assert_allclose(nmf.V, scalar.V, rtol=1e-9, atol=0)


@pytest.mark.parametrize("method", ["nmf", "ntf"])
def test_both_methods_warn_on_large_k_and_empty_mask(method):
    rng = np.random.default_rng(73)
    Y = random_bf_output(rng, I=4, J=6, A=2)
    if method == "nmf":
        bound = 4  # min(I, A*J)

        def fit(K):
            return fit_nmf(build_concat(Y), K=K, iterations=2, seed=0)

        def silence(model):
            empty = FrameMask(np.zeros((6, model.K), dtype=np.int8))
            return nmf_wiener(model, empty, Y)
    else:
        bound = 6  # min(A*I, J)
        sched = RegularizationSchedule(mu=0.0, warmup_iterations=0,
                                       total_iterations=2)

        def fit(K):
            return fit_ntf(build_prop_tensor(Y), K=K, schedule=sched)[0]

        def silence(model):
            empty = Assignment(b=np.ones(model.K, dtype=np.int64),
                               h=np.zeros(model.K, dtype=np.int64))
            return ntf_wiener(model, empty, Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(bound)
    with pytest.warns(UserWarning, match="exceeds"):
        model = fit(bound + 1)
    with pytest.warns(UserWarning, match="no basis kept"):
        out = silence(model)
    for a in range(2):
        assert np.all(out.values[a] == 0)


def brute_force_gain(T, U, keep):
    """gain[a, i, j] = sum_k (t keep u)^2 / sum_k (t u)^2, one entry at a time."""
    A, J, K = U.shape
    I = T.shape[0]
    gain = np.empty((A, I, J))
    for a in range(A):
        for i in range(I):
            for j in range(J):
                num = sum((T[i, k] * keep[a, j, k] * U[a, j, k]) ** 2
                          for k in range(K))
                den = sum((T[i, k] * U[a, j, k]) ** 2 for k in range(K))
                gain[a, i, j] = num / max(den, EPS)
    return gain


class TestMaskedWiener:
    """One gain serves both methods; each is checked against explicit loops."""

    I, J, A, K = 5, 4, 3, 4

    def _cases(self, rng):
        I, J, A, K = self.I, self.J, self.A, self.K
        Y = random_bf_output(rng, I=I, J=J, A=A)
        T = rng.uniform(0.1, 1.0, size=(I, K))
        # NMF: concatenated activations (A*J, K), a per-(frame, basis) mask
        V = rng.uniform(0.1, 1.0, size=(A * J, K))
        H = (rng.uniform(size=(J, K)) < 0.5).astype(np.int8)
        yield ("nmf", Y, T, V.reshape(A, J, K),
               np.broadcast_to(H, (A, J, K)),
               lambda keep: nmf_wiener(NmfModel(T, V),
                                       FrameMask(keep[0].astype(np.int8)), Y))
        # NTF: allocations times activations, a per-basis mask
        model = random_model(rng, A=A, I=I, J=J, K=K)
        h = np.array([1, 0, 1, 0])
        yield ("ntf", Y, model.T, model.Z[:, None, :] * model.V[None],
               np.broadcast_to(h, (A, J, K)),
               lambda keep: ntf_wiener(
                   model, Assignment(b=1 - keep[0, 0], h=keep[0, 0]), Y))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(79)
        for name, Y, T, U, keep, run in self._cases(rng):
            gain = brute_force_gain(T, U, keep)
            out = run(keep)
            for a in range(self.A):
                assert_allclose(out.values[a], gain[a] * Y.values[a],
                                rtol=0, atol=1e-12, err_msg=name)
            assert np.all(gain >= 0) and np.all(gain <= 1.0 + 1e-12)

    def test_fractional_keep_weights_match_brute_force(self):
        rng = np.random.default_rng(83)
        Y = random_bf_output(rng, I=self.I, J=self.J, A=self.A)
        T = rng.uniform(0.1, 1.0, size=(self.I, self.K))
        U = rng.uniform(0.0, 1.0, size=(self.A, self.J, self.K))
        keep = rng.uniform(0.0, 1.0, size=U.shape)
        out = masked_wiener(T, U, keep, Y)
        gain = brute_force_gain(T, U, keep)
        for a in range(self.A):
            assert_allclose(out.values[a], gain[a] * Y.values[a],
                            rtol=0, atol=1e-12)
        assert np.all(gain >= 0) and np.all(gain <= 1.0 + 1e-12)

    def test_all_kept_passes_a_copy_through(self):
        rng = np.random.default_rng(89)
        for name, Y, T, U, keep, run in self._cases(rng):
            out = run(np.ones_like(keep))
            for a in range(self.A):
                assert np.array_equal(out.values[a], Y.values[a]), name
                assert not np.shares_memory(out.values[a], Y.values), name

    def test_none_kept_warns_and_silences(self):
        rng = np.random.default_rng(97)
        for name, Y, T, U, keep, run in self._cases(rng):
            with pytest.warns(UserWarning, match="no basis kept"):
                out = run(np.zeros_like(keep))
            for a in range(self.A):
                assert np.all(out.values[a] == 0), name
