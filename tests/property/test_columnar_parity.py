"""The columnar placement/peeling engines are gated on exact parity.

The columnar kernels must reproduce the object path (``GreedyDualPlacer`` /
``split_into_strips`` / ``two_color``, and the object peel loops kept as
oracles in ``tests/offline/reference.py``) decision-for-decision —
bit-identical altitudes, identical strip classification, identical colors,
identical assignment dicts in the same insertion order, identical costs —
and must match hand-computed golden micro-cases.  Instances deliberately
mix a continuous regime with an integer-grid regime so coincident altitudes
and bands that land exactly on strip boundaries are drawn often, not once
in a blue moon.  The seeded cases at the bottom run the whole pipeline at
sizes Hypothesis never draws.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tests.property.settings import tiered

from repro import Job, JobSet, dec_ladder, inc_ladder, Ladder
from repro.offline.dec_offline import dec_offline
from repro.offline.dual_coloring import dual_coloring_assign
from repro.offline.general_offline import general_offline
from repro.offline.inc_offline import inc_offline
from repro.placement.columnar import (
    columnar_altitudes,
    columnar_strip_slices,
    columnar_two_color,
)
from repro.placement.greedy import place_jobs
from repro.placement.strips import split_into_strips, two_color
from tests.offline.reference import (
    dec_offline_reference,
    dual_coloring_assign_reference,
    general_offline_reference,
    inc_offline_reference,
)

GENERAL_LADDER = Ladder.from_pairs(
    [(1.0, 1.0), (2.0, 3.0), (4.0, 4.0), (8.0, 20.0), (16.0, 21.0)]
)


@st.composite
def instances(draw, max_size: float, max_jobs: int = 50):
    """A JobSet; half the draws live on an integer grid (coincident times,
    sizes that are exact strip-height multiples), half are continuous."""
    n = draw(st.integers(0, max_jobs))
    grid = draw(st.booleans())
    jobs = []
    for uid in range(n):
        if grid:
            a = float(draw(st.integers(0, 20)))
            d = float(draw(st.integers(1, 8)))
            s = float(
                draw(
                    st.sampled_from(
                        [0.5, 1.0, 2.0, max_size / 4, max_size / 2, max_size]
                    )
                )
            )
        else:
            a = draw(
                st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False)
            )
            d = draw(
                st.floats(0.1, 15.0, allow_nan=False, allow_infinity=False)
            )
            s = draw(
                st.floats(0.05, max_size, allow_nan=False, allow_infinity=False)
            )
        jobs.append(Job(arrival=a, departure=a + d, size=s, uid=uid))
    return JobSet(jobs)


def _assert_engine_parity(schedule_fn, reference_fn, jobs, ladder, **kwargs):
    obj = reference_fn(jobs, ladder, **kwargs)
    col = schedule_fn(jobs, ladder, **kwargs)
    assert obj.assignment == col.assignment
    assert list(obj.assignment) == list(col.assignment)  # insertion order
    assert obj.cost() == col.cost()  # bit-identical, not approx
    assert len(set(obj.assignment.values())) == len(set(col.assignment.values()))


# ---------------------------------------------------------------------------
# kernel-level parity: altitudes, strips, two-coloring
# ---------------------------------------------------------------------------


@tiered(100)
@given(instances(max_size=8.0))
def test_altitudes_parity(jobs):
    arrays = jobs.to_arrays()
    alts = columnar_altitudes(arrays.starts, arrays.ends, arrays.sizes)
    placement = place_jobs(jobs)
    assert alts.tolist() == [band.altitude for band in placement.bands]


@tiered(60)
@given(
    instances(max_size=8.0),
    st.sampled_from([0.7, 1.0, 2.0, 4.0]),
)
def test_strip_classification_parity(jobs, height):
    placement = place_jobs(jobs)
    assignment = split_into_strips(placement, height)
    arrays = jobs.to_arrays()
    alts = columnar_altitudes(arrays.starts, arrays.ends, arrays.sizes)
    strip_index, boundary = columnar_strip_slices(
        alts, alts + arrays.sizes, height
    )
    for band, k, b in zip(placement.bands, strip_index.tolist(), boundary.tolist()):
        if b == 0:
            assert band in assignment.inside[k]
        else:
            assert band in assignment.crossing[b]


@tiered(60)
@given(instances(max_size=8.0), st.sampled_from([1.0, 2.0, 4.0]))
def test_two_color_parity(jobs, height):
    placement = place_jobs(jobs)
    assignment = split_into_strips(placement, height)
    for bands in assignment.crossing.values():
        ordered = sorted(bands, key=lambda b: (b.job.arrival, b.job.uid))
        want = two_color(bands)
        got = columnar_two_color(
            [b.job.arrival for b in ordered],
            [b.job.departure for b in ordered],
        )
        assert got == [want[b.job] for b in ordered]


# ---------------------------------------------------------------------------
# full-pipeline parity: the offline peeling loops
# ---------------------------------------------------------------------------


@tiered(50)
@given(instances(max_size=81.0, max_jobs=60))
def test_dec_offline_engine_parity(jobs):
    _assert_engine_parity(dec_offline, dec_offline_reference, jobs, dec_ladder(5))


@tiered(50)
@given(instances(max_size=5.0, max_jobs=60))
def test_inc_offline_engine_parity(jobs):
    _assert_engine_parity(inc_offline, inc_offline_reference, jobs, inc_ladder(5))


@tiered(50)
@given(instances(max_size=16.0, max_jobs=60))
def test_general_offline_engine_parity(jobs):
    _assert_engine_parity(
        general_offline, general_offline_reference, jobs, GENERAL_LADDER
    )


@tiered(30)
@given(
    instances(max_size=81.0, max_jobs=60),
    st.sampled_from(["size", "duration"]),
)
def test_dec_offline_placement_order_parity(jobs, order):
    """The E17 orders: the object placer's altitudes, peeled columnar."""
    _assert_engine_parity(
        dec_offline, dec_offline_reference, jobs, dec_ladder(5), placement_order=order
    )


@tiered(40)
@given(instances(max_size=8.0, max_jobs=60))
def test_dual_coloring_engine_parity(jobs):
    obj = dual_coloring_assign_reference(
        jobs, capacity=8.0, type_index=3, tag_prefix=("p",)
    )
    col = dual_coloring_assign(jobs, capacity=8.0, type_index=3, tag_prefix=("p",))
    assert obj == col
    assert list(obj) == list(col)


# ---------------------------------------------------------------------------
# golden micro-cases: hand-computed expectations pin both placers
# ---------------------------------------------------------------------------


class TestGolden:
    def test_stacking_altitudes(self):
        """2-overlap is allowed: the second job shares [0, 1) with the first;
        the third finds that range at depth 2 (forbidden) and jumps above."""
        jobs = JobSet(
            [
                Job(arrival=0.0, departure=10.0, size=1.0, uid=0),
                Job(arrival=1.0, departure=9.0, size=1.0, uid=1),
                Job(arrival=2.0, departure=8.0, size=1.0, uid=2),
            ]
        )
        arrays = jobs.to_arrays()
        alts = columnar_altitudes(arrays.starts, arrays.ends, arrays.sizes)
        assert alts.tolist() == [0.0, 0.0, 1.0]
        assert [b.altitude for b in place_jobs(jobs).bands] == [0.0, 0.0, 1.0]

    def test_departure_reuse(self):
        """A departed band lowers the depth and reopens the bottom range."""
        jobs = JobSet(
            [
                Job(arrival=0.0, departure=2.0, size=1.0, uid=0),
                Job(arrival=0.5, departure=4.0, size=1.0, uid=1),
                Job(arrival=1.0, departure=4.0, size=1.0, uid=2),
                Job(arrival=2.0, departure=4.0, size=1.0, uid=3),
            ]
        )
        arrays = jobs.to_arrays()
        alts = columnar_altitudes(arrays.starts, arrays.ends, arrays.sizes)
        # uid 2 sees [0,1) at depth 2 and climbs; uid 3 arrives exactly when
        # uid 0 departs (half-open: the slot is free again) and drops back
        assert alts.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert [b.altitude for b in place_jobs(jobs).bands] == alts.tolist()

    def test_coincident_arrivals_tie_break_by_uid(self):
        jobs = JobSet(
            [
                Job(arrival=0.0, departure=5.0, size=2.0, uid=2),
                Job(arrival=0.0, departure=5.0, size=2.0, uid=0),
                Job(arrival=0.0, departure=5.0, size=2.0, uid=1),
            ]
        )
        arrays = jobs.to_arrays()
        alts = columnar_altitudes(arrays.starts, arrays.ends, arrays.sizes)
        # canonical order is (arrival, uid): uids 0 and 1 share the bottom
        # range, uid 2 is pushed above the coincident pair
        assert alts.tolist() == [0.0, 0.0, 2.0]
        assert [b.altitude for b in place_jobs(jobs).bands] == alts.tolist()

    def test_exact_boundary_band_is_inside(self):
        """A band spanning exactly [h, 2h) touches boundaries 1 and 2 but
        crosses neither: it is fully inside strip 1."""
        alts = np.array([1.0])
        tops = np.array([2.0])
        strip_index, boundary = columnar_strip_slices(alts, tops, 1.0)
        assert strip_index.tolist() == [1]
        assert boundary.tolist() == [0]

    def test_boundary_crossing_charges_lowest(self):
        """A band [0.5, 3.5) crosses boundaries 1, 2, 3; charged to 1."""
        strip_index, boundary = columnar_strip_slices(
            np.array([0.5]), np.array([3.5]), 1.0
        )
        assert boundary.tolist() == [1]

    def test_two_color_golden(self):
        colors = columnar_two_color([0.0, 1.0, 2.0, 3.0], [2.0, 3.0, 4.0, 5.0])
        # chains: 0 -> free at 2 (reused), 1 -> free at 3 (reused)
        assert colors == [0, 1, 0, 1]

    def test_empty_and_single(self):
        assert columnar_altitudes(
            np.empty(0), np.empty(0), np.empty(0)
        ).tolist() == []
        one = JobSet([Job(arrival=0.0, departure=1.0, size=3.0, uid=0)])
        arrays = one.to_arrays()
        assert columnar_altitudes(
            arrays.starts, arrays.ends, arrays.sizes
        ).tolist() == [0.0]
        sched_obj = dec_offline_reference(one, dec_ladder(3))
        sched_col = dec_offline(one, dec_ladder(3))
        assert sched_obj.assignment == sched_col.assignment
        empty = JobSet([])
        assert dec_offline(empty, dec_ladder(3)).assignment == {}


# ---------------------------------------------------------------------------
# seeded instances on both sides of the old 4,096-job size dispatch
# ---------------------------------------------------------------------------


def _steady_workload(n: int, max_size: float, seed: int) -> JobSet:
    """``n`` jobs with ~30 concurrent at any time (the horizon grows with n)."""
    rng = np.random.default_rng(seed)
    arrivals = rng.uniform(0.0, n / 2.0, size=n)
    durations = rng.uniform(5.0, 25.0, size=n)
    sizes = rng.uniform(0.05, max_size, size=n)
    return JobSet(
        Job(arrival=float(a), departure=float(a + d), size=float(s), uid=i)
        for i, (a, d, s) in enumerate(zip(arrivals, durations, sizes))
    )


@pytest.mark.parametrize("n", [1500, 6000])
@pytest.mark.parametrize(
    "schedule_fn, reference_fn, ladder",
    [
        (dec_offline, dec_offline_reference, dec_ladder(5)),
        (inc_offline, inc_offline_reference, inc_ladder(5)),
        (general_offline, general_offline_reference, GENERAL_LADDER),
    ],
    ids=["dec", "inc", "gen"],
)
def test_engine_parity_at_scale(schedule_fn, reference_fn, ladder, n):
    jobs = _steady_workload(n, ladder.capacity(ladder.m), seed=n)
    _assert_engine_parity(schedule_fn, reference_fn, jobs, ladder)
