"""Tests for instance linting."""

from hypothesis import given, strategies as st

from repro import Job, JobSet, dec_ladder, lint_instance
from tests.property.settings import tiered


class TestLint:
    def test_clean_instance(self, small_jobs, dec3):
        assert lint_instance(small_jobs, dec3) == []

    def test_empty(self):
        assert lint_instance(JobSet()) == ["instance is empty"]

    def test_extreme_duration_spread(self):
        jobs = JobSet([Job(1, 0, 1e-7), Job(1, 0, 10)])
        warnings = lint_instance(jobs)
        assert any("time units" in w for w in warnings)

    def test_large_mu(self):
        jobs = JobSet([Job(1, 0, 0.01), Job(1, 0, 500)])
        warnings = lint_instance(jobs)
        assert any("mu" in w for w in warnings)

    def test_duplicates(self):
        jobs = JobSet([Job(1.0, 0.0, 2.0), Job(1.0, 0.0, 2.0), Job(2.0, 1.0, 3.0)])
        warnings = lint_instance(jobs)
        assert any("duplicates" in w for w in warnings)

    def test_oversize_vs_ladder(self, dec3):
        jobs = JobSet([Job(100.0, 0, 1)])
        warnings = lint_instance(jobs, dec3)
        assert any("exceed the largest capacity" in w for w in warnings)

    def test_unit_mismatch(self, dec3):
        jobs = JobSet([Job(1e-6, 0, 1, name=str(i), uid=9000 + i) for i in range(10)])
        warnings = lint_instance(jobs, dec3)
        assert any("unit mismatch" in w for w in warnings)


def _lint_reference(jobs, ladder=None):
    """The object-walking lint the column version replaced."""
    from collections import Counter

    if jobs.empty:
        return ["instance is empty"]
    warnings = []
    durations = [j.duration for j in jobs]
    min_dur, max_dur = min(durations), max(durations)
    mu = max_dur / min_dur
    if min_dur < 1e-6 * max_dur:
        warnings.append(
            f"duration spread is extreme: shortest {min_dur:g} vs longest "
            f"{max_dur:g} (mu = {mu:.3g}); check the trace's time units"
        )
    elif mu > 1e4:
        warnings.append(
            f"mu = {mu:.3g} is very large; online guarantees degrade linearly in mu"
        )
    triples = Counter((j.size, j.arrival, j.departure) for j in jobs)
    dupes = sum(c - 1 for c in triples.values() if c > 1)
    if dupes:
        warnings.append(
            f"{dupes} jobs are exact duplicates of another (size, arrival, "
            "departure); double export?"
        )
    if ladder is not None:
        oversize = [j for j in jobs if j.size > ladder.capacity(ladder.m)]
        if oversize:
            warnings.append(
                f"{len(oversize)} jobs exceed the largest capacity "
                f"{ladder.capacity(ladder.m):g} and cannot be scheduled"
            )
        tiny = [j for j in jobs if j.size < 0.001 * ladder.capacity(1)]
        if len(tiny) > len(jobs) // 2:
            warnings.append(
                "most job sizes are below 0.1% of the smallest capacity; "
                "suspected unit mismatch between trace and catalogue"
            )
    return warnings


_VALUES = st.sampled_from([-0.0, 0.0, 1e-7, 1e-4, 0.5, 1.0, 2.0, 3.0, 50.0, 1e4])


@tiered(100)
@given(
    st.lists(st.tuples(_VALUES, _VALUES, _VALUES), max_size=12),
    st.booleans(),
)
def test_column_lint_matches_the_object_lint(triples, with_ladder):
    """Same warnings, with -0.0 and 0.0 counted as one value in the
    duplicate check."""
    jobs = JobSet(
        Job(abs(s) + 1e-9, a, a + abs(d) + 1e-7) for s, a, d in triples
    )
    ladder = dec_ladder(3) if with_ladder else None
    assert lint_instance(jobs, ladder) == _lint_reference(jobs, ladder)


def test_signed_zero_arrivals_are_duplicates():
    jobs = JobSet([Job(1.0, -0.0, 2.0), Job(1.0, 0.0, 2.0)])
    assert any(w.startswith("1 jobs are exact duplicates") for w in lint_instance(jobs))
