"""The closed-form q_run timing layer against its per-PUT oracle.

``tests/timing_oracle.py`` holds the loops the closed forms replace:
the list-building Algorithm 1 plan, the per-batch Fig. 9b timeline,
the per-PUT host-overlap loop (and its DES twin) and the one-entry-per-
PUT barrier.  Every comparison here is exact to the picosecond.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HOST_RESULT_BASE, MemoryBarrier, QtenonSystem
from repro.core.scheduler import compute_run_timeline, plan_transmissions
from repro.vqa import qaoa_workload

from tests import timing_oracle as oracle

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

shot_counts = st.one_of(st.integers(1, 600), st.integers(1, 200_000))


@lru_cache(maxsize=None)
def _system() -> QtenonSystem:
    return QtenonSystem(2)


def _spot_indices(n, data):
    return sorted({0, n - 1, n // 2, *data.draw(st.lists(st.integers(0, n - 1), max_size=8))})


@SETTINGS
@given(
    n_qubits=st.integers(1, 320),
    shots=shot_counts,
    batched=st.booleans(),
    host_addr=st.integers(0, 2**40),
    data=st.data(),
)
def test_plan_matches_algorithm_1_loop(n_qubits, shots, batched, host_addr, data):
    plan = plan_transmissions(n_qubits, shots, host_addr, batched)
    reference = oracle.plan_transmissions(n_qubits, shots, host_addr, batched)
    assert len(plan) == len(reference)
    for index in _spot_indices(len(plan), data):
        assert plan[index] == reference[index]
        assert plan[index - len(plan)] == reference[index]
    assert list(plan.ranges()) == [(b.host_addr, b.n_bytes) for b in reference]
    if len(plan) <= 5_000:
        assert list(plan) == reference
        assert plan[1:-1:3] == reference[1:-1:3]


@st.composite
def timeline_cases(draw):
    n_qubits = draw(st.integers(1, 320))
    shots = draw(shot_counts)
    batched = draw(st.booleans())
    reference = oracle.plan_transmissions(n_qubits, shots, 0x2000_0000, batched)
    n = len(reference)
    # s = K * shot_ps below, at and above the issue overhead o, often
    # close to it so a retry backlog drains inside a fault-free stretch.
    overhead = draw(st.integers(0, 50_000))
    interval = reference[0].n_shots
    ratio = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.01, 1.1, 1.5, 3.0, 1000.0]))
    shot_ps = max(1, int(ratio * overhead) // interval + draw(st.integers(0, 2)))
    batch_ps = shot_ps * interval
    attempts = None
    if draw(st.booleans()):
        # Sparse retries, some clustered so stretches of 0, 1 and 2
        # fault-free PUTs occur between them.
        retried = draw(st.lists(st.integers(0, n - 1), max_size=6))
        retried += [i + d for i in retried[:2] for d in draw(st.sets(st.integers(1, 3)))]
        retried += draw(st.lists(st.sampled_from([0, n - 1]), max_size=2))
        attempts = [1] * n
        for index in retried:
            if index < n:
                attempts[index] = draw(st.integers(2, 4))
    return dict(
        n_qubits=n_qubits,
        shots=shots,
        batched=batched,
        reference=reference,
        start_ps=draw(st.integers(0, 10**12)),
        shot_duration_ps=shot_ps,
        put_issue_overhead_ps=overhead,
        put_response_latency_ps=draw(st.integers(0, 500_000)),
        attempts_per_batch=attempts,
        retry_penalty_ps=draw(st.integers(0, 40 * max(batch_ps, overhead, 1))),
    )


def _timelines(case):
    plan = plan_transmissions(case["n_qubits"], case["shots"], 0x2000_0000, case["batched"])
    args = {
        key: case[key]
        for key in (
            "start_ps", "shot_duration_ps", "put_issue_overhead_ps",
            "put_response_latency_ps", "attempts_per_batch", "retry_penalty_ps",
        )
    }
    return compute_run_timeline(plan, **args), oracle.compute_run_timeline(
        case["reference"], **args
    )


@SETTINGS
@given(case=timeline_cases())
def test_timeline_matches_per_batch_loop(case):
    timeline, reference = _timelines(case)
    assert timeline.quantum_end_ps == reference.quantum_end_ps
    assert timeline.put_issue_times == reference.put_issue_times
    assert timeline.put_response_times == reference.put_response_times
    assert list(timeline.iter_put_issues()) == list(reference.put_issue_times)
    assert timeline.last_put_issue_ps == reference.put_issue_times[-1]
    assert timeline.last_put_response_ps == reference.put_response_times[-1]
    retries = sum(a > 1 for a in case["attempts_per_batch"] or ())
    # Two pieces per fault-free run; each retry adds at most three.
    assert len(timeline.issue_pieces) <= 2 + 3 * retries


@SETTINGS
@given(case=timeline_cases(), ratio=st.floats(0, 3), data=st.data())
def test_host_overlap_matches_per_put_loop(case, ratio, data):
    timeline, reference = _timelines(case)
    stride = max(
        reference.put_issue_times[1] - reference.put_issue_times[0]
        if len(reference.put_issue_times) > 1 else 0,
        1,
    )
    # per-batch host time below, at and above the PUT stride
    per_batch_host = data.draw(st.sampled_from([int(ratio * stride), stride, 0]))
    query_ps = _system().clock.period_ps
    expected = oracle.overlapped_host_done(reference, per_batch_host, query_ps)
    assert _system()._overlapped_host_done(timeline, per_batch_host) == expected
    if len(reference.put_issue_times) <= 2_000:
        assert oracle.overlapped_host_done_event(
            reference, per_batch_host, query_ps
        ) == expected


@pytest.mark.parametrize("shot_ps", [5, 7, 10, 11, 500])
def test_retry_backlog_drains_inside_a_stretch(shot_ps):
    """A retry leaves the port backed up; the following fault-free PUTs
    issue on the backlog, then (s > o) return to the shot pace."""
    reference = oracle.plan_transmissions(64, 400, 0, True)  # K = 4
    attempts = [1] * len(reference)
    attempts[10] = attempts[11] = attempts[60] = 3
    args = (0, shot_ps, 30, 5, attempts, 23)
    timeline = compute_run_timeline(plan_transmissions(64, 400, 0, True), *args)
    assert timeline.put_issue_times == oracle.compute_run_timeline(reference, *args).put_issue_times


@st.composite
def barrier_marks(draw):
    """Runs of strided marks (some re-marking earlier addresses) mixed
    with single marks, as (addr, size, ready) triples."""
    marks = []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.integers(0, 4096))
        size = draw(st.integers(1, 64))
        stride = draw(st.one_of(st.just(size), st.integers(1, 128)))
        ready = draw(st.integers(0, 10_000))
        step = draw(st.integers(-200, 500))
        for k in range(draw(st.integers(1, 40))):
            marks.append((base + k * stride, size, ready + k * step))
        for _ in range(draw(st.integers(0, 3))):
            marks.append((draw(st.integers(0, 8192)), draw(st.integers(1, 64)),
                          draw(st.integers(0, 30_000))))
    return marks


@settings(max_examples=150, deadline=None)
@given(marks=barrier_marks(), data=st.data())
def test_barrier_matches_per_put_table(marks, data):
    barrier, reference = MemoryBarrier(), oracle.ListBarrier()
    for mark in marks:
        barrier.mark_put(*mark)
        reference.mark_put(*mark)
    assert len(barrier._segments) <= len(marks)
    addrs = data.draw(st.lists(st.integers(0, 9000), min_size=1, max_size=20))
    addrs += [addr + delta for addr, size, _ in marks[::7] for delta in (-1, 0, size - 1, size)]
    times = data.draw(st.lists(st.integers(-1, 40_000), min_size=1, max_size=10))
    times += [ready + delta for _, _, ready in marks[::5] for delta in (-1, 0, 1)]
    for now in times:
        assert barrier.fence(now) == reference.fence(now)
        assert barrier.pending_after(now) == reference.pending_after(now)
    for addr in addrs:
        now = data.draw(st.sampled_from(times))
        assert barrier.query(addr, now) == reference.query(addr, now)


def test_barrier_holds_segments_per_q_run_not_per_put(monkeypatch):
    """A long-lived platform: 200 evaluations at 50k shots keep a few
    barrier segments per q_run, and every answer matches the per-PUT
    table."""
    reference = oracle.ListBarrier()
    mark_put = MemoryBarrier.mark_put

    def both(self, *args):
        reference.mark_put(*args)
        mark_put(self, *args)

    monkeypatch.setattr(MemoryBarrier, "mark_put", both)
    workload = qaoa_workload(4, n_layers=1)
    system = QtenonSystem(4, seed=3, timing_only=True)
    system.prepare(workload.ansatz, workload.observable)
    rng = np.random.default_rng(3)
    for vector in rng.uniform(-1, 1, size=(200, workload.n_parameters)):
        system.evaluate(dict(zip(workload.parameters, vector)), 50_000)
    barrier = system.controller.barrier
    q_runs = system.report.instruction_counts["q_run"]
    puts = len(reference.ranges)
    assert q_runs >= 200 and puts >= 700 * q_runs
    assert len(barrier._segments) <= 2 * q_runs
    assert barrier.pending_after(-1) == puts

    readies = sorted(entry.ready_ps for entry in reference.ranges)
    times = [-1, *readies[:: len(readies) // 13], readies[-1], readies[-1] + 1]
    for now in times:
        assert barrier.fence(now) == reference.fence(now)
        assert barrier.pending_after(now) == reference.pending_after(now)
    stride = reference.ranges[0].size
    for addr in (HOST_RESULT_BASE - 1, HOST_RESULT_BASE, HOST_RESULT_BASE + stride - 1,
                 HOST_RESULT_BASE + 300 * stride + 5, reference.ranges[-1].addr,
                 reference.ranges[-1].addr + reference.ranges[-1].size):
        for now in times[::3]:
            assert barrier.query(addr, now) == reference.query(addr, now)
