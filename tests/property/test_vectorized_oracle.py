"""Differential tests: every vectorized kernel against a naive oracle.

Every kernel in :mod:`repro.core.vectorized` — the one production path for
batch accounting — is pinned against the naive ``*_reference`` twin (the
ground-truth oracle, BSHM003) or, where no public twin exists, a per-segment
full scan written out here.  Exact equality on integer inputs, 1e-9
tolerance on floats.

The integer strategies draw coordinates from a tiny range on purpose: tied
event times are the interesting case (they exercise ``_stable_order``'s
tie-repair fallback and the half-open cancellation semantics), and small
ranges make ties near-certain.  Deterministic edge cases that Hypothesis
is unlikely to hit — empty batches, a single job, exactly coincident
endpoints, huge-magnitude time spans — get explicit tests at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    Job,
    busy_time_reference,
    busy_union_reference,
    demand_profile_reference,
    grouped_busy_time_reference,
    nested_demand_reference,
    peak_load_reference,
    sweep_nested_demand,
    vec_busy_union,
    vec_demand_profile,
    vec_event_steps,
    vec_grouped_busy_time,
    vec_nested_demand,
    vec_peak_load,
)
from tests.property.settings import tiered

# ci-tier baseline: ~200 examples per kernel pair
ORACLE = tiered(200)

TOL = 1e-9


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def int_columns(draw, max_n: int = 25, max_weight: int = 9):
    """(starts, ends, weights) float64 columns with integer values."""
    n = draw(st.integers(1, max_n))
    starts = draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    durations = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, max_weight), min_size=n, max_size=n))
    s = np.asarray(starts, dtype=np.float64)
    return s, s + np.asarray(durations, dtype=np.float64), np.asarray(
        weights, dtype=np.float64
    )


@st.composite
def float_columns(draw, max_n: int = 25):
    """(starts, ends, weights) columns with arbitrary float values."""
    n = draw(st.integers(1, max_n))
    f = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    d = st.floats(0.05, 40.0, allow_nan=False, allow_infinity=False)
    w = st.floats(0.05, 8.0, allow_nan=False, allow_infinity=False)
    s = np.asarray(draw(st.lists(f, min_size=n, max_size=n)))
    durations = np.asarray(draw(st.lists(d, min_size=n, max_size=n)))
    weights = np.asarray(draw(st.lists(w, min_size=n, max_size=n)))
    return s, s + durations, weights


@st.composite
def grouped_columns(draw, columns, max_groups: int = 5):
    s, e, _ = draw(columns)
    n_groups = draw(st.integers(1, max_groups))
    groups = draw(
        st.lists(st.integers(0, n_groups - 1), min_size=s.size, max_size=s.size)
    )
    return s, e, np.asarray(groups, dtype=np.int64), n_groups


@st.composite
def nested_batch(draw, max_n: int = 20, max_m: int = 4):
    """(jobs, capacities) with every size fitting the largest capacity."""
    m = draw(st.integers(1, max_m))
    caps = [float(2**i) for i in range(m)]
    n = draw(st.integers(1, max_n))
    starts = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    durations = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    sizes = draw(
        st.lists(
            st.floats(0.05, caps[-1], allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    jobs = [
        Job(size=z, arrival=float(a), departure=float(a + d))
        for a, d, z in zip(starts, durations, sizes)
    ]
    return jobs, caps


def _job_columns(jobs):
    s = np.asarray([j.arrival for j in jobs])
    e = np.asarray([j.departure for j in jobs])
    z = np.asarray([j.size for j in jobs])
    return s, e, z


def _event_steps_naive(s, e, w):
    """Distinct event times and the weight active on each segment, by a
    full scan of every interval per segment."""
    times = sorted(set(s.tolist()) | set(e.tolist()))
    cover = [
        sum(wi for a, b, wi in zip(s.tolist(), e.tolist(), w.tolist()) if a <= t < b)
        for t in times[:-1]
    ]
    return np.asarray(times), np.asarray(cover, dtype=np.float64)


def _peak_load_naive(s, e, w, time_tol):
    """Peak load over the segments longer than ``time_tol``, by a full scan."""
    times, cover = _event_steps_naive(s, e, w)
    return float(cover[np.diff(times) > time_tol].max(initial=0.0))


def _busy_time_grouped(s, e):
    """Busy time of one batch through the grouped kernel, as one group."""
    return float(vec_grouped_busy_time(s, e, np.zeros(s.size, dtype=np.int64), 1)[0])


def _assert_nested_equal(vec, sweep, ref, *, exact: bool) -> None:
    for other in (sweep, ref):
        assert np.array_equal(vec[0], other[0])
        assert np.array_equal(vec[1], other[1])
        if exact:
            assert np.array_equal(vec[2], other[2])
        else:
            np.testing.assert_allclose(vec[2], other[2], rtol=TOL, atol=TOL)


# ---------------------------------------------------------------------------
# event steps and demand profiles
# ---------------------------------------------------------------------------

class TestEventStepsOracle:
    @ORACLE
    @given(int_columns())
    def test_exact_on_integers(self, batch):
        s, e, w = batch
        vt, vc = vec_event_steps(s, e, w)
        nt, nc = _event_steps_naive(s, e, w)
        assert np.array_equal(vt, nt)
        assert np.array_equal(vc, nc)

    @ORACLE
    @given(float_columns())
    def test_tolerance_on_floats(self, batch):
        s, e, w = batch
        vt, vc = vec_event_steps(s, e, w)
        nt, nc = _event_steps_naive(s, e, w)
        assert np.array_equal(vt, nt)
        np.testing.assert_allclose(vc, nc, rtol=TOL, atol=TOL)


class TestDemandProfileOracle:
    @ORACLE
    @given(int_columns())
    def test_exact_on_integers(self, batch):
        s, e, w = batch
        pulses = list(zip(s.tolist(), e.tolist(), w.tolist()))
        assert vec_demand_profile(s, e, w) == demand_profile_reference(pulses)

    @ORACLE
    @given(float_columns())
    def test_pointwise_on_floats(self, batch):
        s, e, w = batch
        pulses = list(zip(s.tolist(), e.tolist(), w.tolist()))
        vec = vec_demand_profile(s, e, w)
        ref = demand_profile_reference(pulses)
        probes = np.unique(np.concatenate([vec.breaks, ref.breaks]))
        mids = (probes[:-1] + probes[1:]) / 2.0
        for t in np.concatenate([probes, mids]):
            assert vec(float(t)) == pytest.approx(ref(float(t)), rel=TOL, abs=TOL)
        assert vec.integral() == pytest.approx(ref.integral(), rel=TOL, abs=TOL)


# ---------------------------------------------------------------------------
# busy time / unions
# ---------------------------------------------------------------------------

class TestBusyTimeOracle:
    @ORACLE
    @given(int_columns())
    def test_exact_on_integers(self, batch):
        # the union's measure (runtime busy time, workload stats) and the
        # grouped kernel's one-group total (Schedule.cost)
        s, e, _ = batch
        ref = busy_time_reference(s, e)
        assert vec_busy_union(s, e).length == ref
        assert _busy_time_grouped(s, e) == ref

    @ORACLE
    @given(float_columns())
    def test_tolerance_on_floats(self, batch):
        s, e, _ = batch
        ref = busy_time_reference(s, e)
        assert vec_busy_union(s, e).length == pytest.approx(ref, rel=TOL, abs=TOL)
        assert _busy_time_grouped(s, e) == pytest.approx(ref, rel=TOL, abs=TOL)

    @ORACLE
    @given(int_columns())
    def test_union_structurally_exact(self, batch):
        s, e, _ = batch
        assert vec_busy_union(s, e) == busy_union_reference(s, e)

    @ORACLE
    @given(float_columns())
    def test_union_exact_on_floats(self, batch):
        # endpoints pass through both paths unchanged; only derived
        # *measures* can drift, and unions carry no arithmetic at all
        s, e, _ = batch
        assert vec_busy_union(s, e) == busy_union_reference(s, e)


# ---------------------------------------------------------------------------
# peak load
# ---------------------------------------------------------------------------

class TestPeakLoadOracle:
    @ORACLE
    @given(int_columns())
    def test_exact_on_integers(self, batch):
        s, e, w = batch
        assert vec_peak_load(s, e, w) == peak_load_reference(s, e, w)

    @ORACLE
    @given(float_columns())
    def test_tolerance_on_floats(self, batch):
        s, e, w = batch
        assert vec_peak_load(s, e, w) == pytest.approx(
            peak_load_reference(s, e, w), rel=TOL, abs=TOL
        )

    @ORACLE
    @given(int_columns(), st.floats(0.0, 2.0))
    def test_time_tol_path_matches_sweep(self, batch, tol):
        # the sliver-filtering branch (validate_schedule's capacity check)
        # against a naive sweep: a full scan of every segment longer than
        # the tolerance
        s, e, w = batch
        assert vec_peak_load(s, e, w, time_tol=tol) == _peak_load_naive(s, e, w, tol)


# ---------------------------------------------------------------------------
# grouped busy time (the busy-cost integrator)
# ---------------------------------------------------------------------------

class TestGroupedBusyTimeOracle:
    @ORACLE
    @given(grouped_columns(int_columns()))
    def test_exact_on_integers(self, batch):
        s, e, g, n_groups = batch
        assert np.array_equal(
            vec_grouped_busy_time(s, e, g, n_groups),
            grouped_busy_time_reference(s, e, g, n_groups),
        )

    @ORACLE
    @given(grouped_columns(float_columns()))
    def test_tolerance_on_floats(self, batch):
        s, e, g, n_groups = batch
        np.testing.assert_allclose(
            vec_grouped_busy_time(s, e, g, n_groups),
            grouped_busy_time_reference(s, e, g, n_groups),
            rtol=TOL,
            atol=TOL,
        )


# ---------------------------------------------------------------------------
# the nested lower-bound matrix
# ---------------------------------------------------------------------------

class TestNestedDemandOracle:
    @ORACLE
    @given(nested_batch())
    def test_matches_both_tiers(self, batch):
        jobs, caps = batch
        s, e, z = _job_columns(jobs)
        vec = vec_nested_demand(s, e, z, caps)
        _assert_nested_equal(
            vec,
            sweep_nested_demand(jobs, caps),
            nested_demand_reference(jobs, caps),
            exact=False,
        )


# ---------------------------------------------------------------------------
# deterministic edges Hypothesis is unlikely to produce
# ---------------------------------------------------------------------------

EMPTY = np.zeros(0)


class TestEdgeCases:
    def test_empty_batch(self):
        times, cover = vec_event_steps(EMPTY, EMPTY)
        assert np.array_equal(times, np.zeros(1)) and cover.size == 0
        assert _busy_time_grouped(EMPTY, EMPTY) == 0.0
        assert vec_busy_union(EMPTY, EMPTY).length == 0.0
        assert vec_peak_load(EMPTY, EMPTY, EMPTY) == 0.0
        assert np.array_equal(
            vec_grouped_busy_time(EMPTY, EMPTY, np.zeros(0, dtype=np.int64), 3),
            np.zeros(3),
        )
        times, active, demand = vec_nested_demand(EMPTY, EMPTY, EMPTY, [1.0, 2.0])
        ref = sweep_nested_demand([], [1.0, 2.0])
        assert np.array_equal(times, ref[0])
        assert np.array_equal(active, ref[1])
        assert np.array_equal(demand, ref[2])
        assert vec_demand_profile(EMPTY, EMPTY, EMPTY).integral() == 0.0

    def test_single_job(self):
        s, e, w = np.array([2.0]), np.array([7.0]), np.array([1.5])
        assert _busy_time_grouped(s, e) == 5.0
        assert vec_peak_load(s, e, w) == 1.5
        assert vec_busy_union(s, e) == busy_union_reference(s, e)
        profile = vec_demand_profile(s, e, w)
        assert profile == demand_profile_reference([(2.0, 7.0, 1.5)])
        assert np.array_equal(
            vec_grouped_busy_time(s, e, np.array([1]), 3),
            np.array([0.0, 5.0, 0.0]),
        )
        job = Job(size=1.5, arrival=2.0, departure=7.0)
        _assert_nested_equal(
            vec_nested_demand(s, e, w, [1.0, 2.0]),
            sweep_nested_demand([job], [1.0, 2.0]),
            nested_demand_reference([job], [1.0, 2.0]),
            exact=True,
        )

    def test_coincident_endpoints_are_half_open(self):
        # back-to-back jobs: departure at t cancels against arrival at t,
        # so the peak never double-counts and the union has no seam
        s = np.array([0.0, 5.0, 5.0, 10.0])
        e = np.array([5.0, 10.0, 10.0, 15.0])
        w = np.array([2.0, 3.0, 1.0, 2.0])
        assert _busy_time_grouped(s, e) == 15.0
        assert vec_peak_load(s, e, w) == peak_load_reference(s, e, w) == 4.0
        assert vec_busy_union(s, e) == busy_union_reference(s, e)
        times, cover = vec_event_steps(s, e, w)
        nt, nc = _event_steps_naive(s, e, w)
        assert np.array_equal(times, nt) and np.array_equal(cover, nc)

    def test_identical_jobs_all_tied(self):
        # every event time tied: _stable_order's fallback path end to end
        s = np.full(8, 3.0)
        e = np.full(8, 9.0)
        w = np.full(8, 0.5)
        assert _busy_time_grouped(s, e) == 6.0
        assert vec_peak_load(s, e, w) == 4.0
        assert vec_demand_profile(s, e, w) == demand_profile_reference(
            list(zip(s, e, w))
        )

    def test_huge_span(self):
        # 1e12-scale coordinates next to unit-length intervals: exercises
        # magnitude-mixing in the cumsum and the grouped block offsets
        s = np.array([0.0, 1.0e12, 1.0e12 + 0.5, 2.0e12])
        e = np.array([1.0, 1.0e12 + 1.0, 1.0e12 + 1.5, 2.0e12 + 1.0])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        assert _busy_time_grouped(s, e) == busy_time_reference(s, e)
        assert vec_busy_union(s, e).length == busy_time_reference(s, e)
        assert vec_peak_load(s, e, w) == peak_load_reference(s, e, w) == 5.0
        assert vec_busy_union(s, e) == busy_union_reference(s, e)
        g = np.array([0, 1, 1, 0], dtype=np.int64)
        assert np.array_equal(
            vec_grouped_busy_time(s, e, g, 2),
            grouped_busy_time_reference(s, e, g, 2),
        )

    def test_whole_horizon_job_over_huge_span(self):
        # one job covering the entire 2e12 horizon on top of slivers
        s = np.array([0.0, 1.0e12])
        e = np.array([2.0e12, 1.0e12 + 1.0])
        w = np.array([1.0, 1.0])
        assert _busy_time_grouped(s, e) == 2.0e12
        assert vec_peak_load(s, e, w) == 2.0
        assert vec_busy_union(s, e) == busy_union_reference(s, e)

    def test_rejects_malformed_batches(self):
        with pytest.raises(ValueError):
            vec_event_steps(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            vec_peak_load(np.array([0.0]), np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            vec_grouped_busy_time(
                np.array([0.0]), np.array([1.0]), np.array([5]), 2
            )
        with pytest.raises(ValueError):
            vec_nested_demand(
                np.array([0.0]), np.array([1.0]), np.array([9.0]), [1.0, 2.0]
            )
