"""One evaluation path: platforms are timing models, values come from
the evaluation spec.

A bare platform builds its own spec on the first functional evaluation
and seeds every value from the evaluation's content, exactly as an
:class:`EvaluationEngine` wrapping it does — so the two give
bit-identical values *and* modelled timelines for the same seed.
"""

import numpy as np
import pytest

from repro import DecoupledSystem, HybridRunner, QtenonSystem
from repro.runtime import EvaluationEngine
from repro.vqa import ghz_workload, make_optimizer, vqe_workload

PLATFORMS = [QtenonSystem, DecoupledSystem]


def _vectors(n_params, count=5, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-np.pi, np.pi, n_params) for _ in range(count)]


def _drive(platform, workload, shots):
    platform.prepare(workload.ansatz, workload.observable)
    values = [
        platform.evaluate(
            {p: float(v) for p, v in zip(workload.parameters, vector)}, shots
        )
        for vector in _vectors(len(workload.parameters))
    ]
    return values, platform.finish().end_to_end_ps


@pytest.mark.parametrize("shots", [300, 0])
@pytest.mark.parametrize("platform_cls", PLATFORMS)
def test_bare_platform_matches_engine_bit_for_bit(platform_cls, shots):
    workload = vqe_workload(6)
    bare = _drive(platform_cls(6, seed=3), workload, shots)
    wrapped = _drive(
        EvaluationEngine(platform_cls(6, seed=3), seed=3), workload, shots
    )
    assert bare == wrapped


@pytest.mark.parametrize("platform_cls", PLATFORMS)
def test_batch_entry_point_matches_single_evaluations(platform_cls):
    workload = vqe_workload(6)
    vectors = _vectors(len(workload.parameters))
    single = platform_cls(6, seed=3)
    single.prepare(workload.ansatz, workload.observable)
    expected = [
        single.evaluate(dict(zip(workload.parameters, map(float, v))), 300)
        for v in vectors
    ]
    batched = platform_cls(6, seed=3)
    batched.prepare(workload.ansatz, workload.observable)
    assert batched.evaluate_vectors(workload.parameters, vectors, 300) == expected
    assert batched.finish().end_to_end_ps == single.finish().end_to_end_ps


def test_timing_replay_never_builds_a_spec():
    workload = vqe_workload(4)
    platform = QtenonSystem(4, seed=1)
    engine = EvaluationEngine(platform, seed=1)
    engine.prepare(workload.ansatz, workload.observable)
    engine.evaluate({p: 0.2 for p in workload.parameters}, 100)
    assert platform._spec is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: QtenonSystem(4, seed=0),
        lambda: DecoupledSystem(4, seed=0),
        lambda: EvaluationEngine(QtenonSystem(4, seed=0), seed=0),
    ],
)
def test_exact_energy_on_a_stabilizer_routed_job(make):
    """GHZ routes to the stabilizer tableau; ``shots=0`` still gets the
    exact statevector expectation at this width."""
    workload = ghz_workload(4)
    result = HybridRunner(
        make(),
        workload.ansatz,
        workload.parameters,
        workload.observable,
        make_optimizer("spsa", seed=0),
        shots=0,
        iterations=1,
    ).run(seed=0)
    assert result.best_cost == pytest.approx(3.0, abs=1e-12)
