"""Tests for the cost-model execution planner and its wiring.

Two invariants carry the whole design:

* **general jobs are untouched** — a job with symbolic parameters gets
  exactly the legacy width-check routing (statevector below the exact
  limit, product above), so pre-planner cache keys, backend ids and
  content-derived sampler seeds are stable across the upgrade;
* **planned == forced** — a planner-chosen backend and the same
  backend forced explicitly are indistinguishable downstream (same
  ``backend_id``, same evaluation cache keys, same sampled histories).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.planner import (
    BACKEND_CHOICES,
    CLIFFORD,
    CLIFFORD_T,
    GENERAL,
    CostModel,
    ExecutionPlanner,
    PLANNER_STATS,
    derive_backend_id,
)
from repro.quantum import Parameter, QuantumCircuit
from repro.quantum.kernels import GateCensus, gate_census
from repro.quantum.noise import ReadoutNoise
from repro.runtime.cache import evaluation_key
from repro.runtime.engine import build_spec, evaluate_spec
from repro.vqa import ghz_circuit, ghz_observable, ghz_workload


@pytest.fixture
def planner():
    return ExecutionPlanner()


def clifford_census(n_gates=100):
    return GateCensus(n_gates=n_gates, n_1q=n_gates, n_clifford=n_gates)


# ----------------------------------------------------------------------
# gate census
# ----------------------------------------------------------------------
class TestGateCensus:
    def test_counts_mixed_circuit(self):
        qc = (
            QuantumCircuit(3)
            .h(0)
            .cx(0, 1)
            .rz(math.pi / 2, 2)
            .t(1)
            .rx(0.3, 0)
            .measure_all()
        )
        census = gate_census(qc)
        assert census.n_gates == 5
        assert census.n_1q == 4 and census.n_2q == 1
        assert census.n_clifford == 3  # h, cx, rz(pi/2)
        assert census.n_t == 1
        assert census.n_other == 1  # rx(0.3): bound but off-grid
        assert census.n_measurements == 3
        assert not census.is_clifford and not census.is_clifford_t

    def test_symbolic_parameters_are_parametric(self):
        qc = QuantumCircuit(1).rx(Parameter("t"), 0)
        census = gate_census(qc)
        assert census.n_parametric == 1
        assert not census.is_clifford

    def test_t_powers_detected_in_rotations(self):
        # rz(pi/4) is a T up to phase; rzz(-pi/4) likewise.
        assert gate_census(QuantumCircuit(1).rz(math.pi / 4, 0)).n_t == 1
        assert gate_census(QuantumCircuit(2).rzz(-math.pi / 4, 0, 1)).n_t == 1

    def test_clifford_flags(self):
        clifford = gate_census(QuantumCircuit(2).h(0).cx(0, 1).measure_all())
        assert clifford.is_clifford and clifford.is_clifford_t
        clifford_t = gate_census(QuantumCircuit(1).h(0).t(0))
        assert not clifford_t.is_clifford and clifford_t.is_clifford_t

    def test_merge_adds_fieldwise(self):
        a = gate_census(QuantumCircuit(2).h(0).cx(0, 1))
        b = gate_census(QuantumCircuit(2).t(0).measure_all())
        merged = a.merge(b)
        assert merged.n_gates == 3
        assert merged.n_t == 1
        assert merged.n_measurements == 2
        assert not merged.is_clifford and merged.is_clifford_t


# ----------------------------------------------------------------------
# classification and decisions
# ----------------------------------------------------------------------
class TestDecisions:
    def test_classify(self, planner):
        assert planner.classify(clifford_census()) == CLIFFORD
        assert planner.classify(GateCensus(n_gates=1, n_t=1)) == CLIFFORD_T
        assert planner.classify(GateCensus(n_gates=1, n_parametric=1)) == GENERAL

    def test_wide_clifford_routes_to_stabilizer(self, planner):
        decision = planner.decide(
            n_qubits=64, censuses=[clifford_census()], exact_limit=14
        )
        assert decision.backend == "stabilizer"
        assert decision.exact and not decision.forced
        assert decision.job_class == CLIFFORD
        assert "statevector" not in decision.costs  # infeasible at 64q

    def test_general_keeps_legacy_width_check(self, planner):
        census = GateCensus(n_gates=50, n_parametric=50)
        narrow = planner.decide(n_qubits=8, censuses=[census], exact_limit=14)
        wide = planner.decide(n_qubits=30, censuses=[census], exact_limit=14)
        assert narrow.backend == "statevector" and narrow.exact
        assert wide.backend == "product" and not wide.exact
        assert wide.job_class == GENERAL

    def test_clifford_t_routes_like_general(self, planner):
        census = GateCensus(n_gates=50, n_clifford=40, n_t=10)
        wide = planner.decide(n_qubits=30, censuses=[census], exact_limit=14)
        assert wide.job_class == CLIFFORD_T
        assert wide.backend == "product"  # no Clifford+T engine yet

    def test_narrow_clifford_picks_cheapest_exact(self, planner):
        # Large gate count at small width: the tableau's 2n-per-gate
        # beats the statevector's 2**n-per-gate.
        many = planner.decide(
            n_qubits=10, censuses=[clifford_census(10_000)], exact_limit=14
        )
        assert many.backend == "stabilizer"
        # Tiny circuit at tiny width: 2**n is cheaper than the n**3
        # support extraction, so statevector wins — still exact.
        few = planner.decide(
            n_qubits=2, censuses=[clifford_census(2)], exact_limit=14
        )
        assert few.backend == "statevector"
        assert few.exact and many.exact

    def test_forced_backend_passthrough(self, planner):
        decision = planner.decide(
            n_qubits=64,
            censuses=[clifford_census()],
            exact_limit=14,
            force_backend="product",
        )
        assert decision.backend == "product"
        assert decision.forced
        assert decision.job_class == CLIFFORD  # still classified

    def test_decisions_are_pure(self, planner):
        kwargs = dict(
            n_qubits=20, censuses=[clifford_census(123)], exact_limit=14
        )
        assert planner.decide(**kwargs) == planner.decide(**kwargs)

    def test_censuses_merge_before_classifying(self, planner):
        # One Clifford group + one parametric group = a general job.
        decision = planner.decide(
            n_qubits=4,
            censuses=[clifford_census(), GateCensus(n_gates=1, n_parametric=1)],
            exact_limit=14,
        )
        assert decision.job_class == GENERAL

    def test_decision_counters_advance(self, planner):
        before = PLANNER_STATS.counter("decisions").value
        planner.decide(n_qubits=4, censuses=[clifford_census()], exact_limit=14)
        assert PLANNER_STATS.counter("decisions").value == before + 1

    def test_cost_model_orderings(self):
        model = CostModel()
        census = clifford_census(100)
        # Statevector cost explodes with width; the others stay poly.
        assert model.statevector_cost(30, census, 100) > model.stabilizer_cost(
            30, census, 100
        )
        assert model.product_cost(30, census, 100) < model.stabilizer_cost(
            30, census, 100
        )

    @given(
        n_qubits=st.integers(2, 40),
        n_gates=st.integers(1, 500),
        parametric=st.booleans(),
        seed=st.integers(0, 2**10),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_exact_when_feasible(self, n_qubits, n_gates, parametric, seed):
        census = GateCensus(
            n_gates=n_gates,
            n_parametric=n_gates if parametric else 0,
            n_clifford=0 if parametric else n_gates,
        )
        decision = ExecutionPlanner().decide(
            n_qubits=n_qubits, censuses=[census], exact_limit=14
        )
        assert decision.backend in BACKEND_CHOICES[1:]
        if n_qubits <= 14 or not parametric:
            # An exact backend is feasible: the planner must use it.
            assert decision.exact
        else:
            assert decision.backend == "product"


# ----------------------------------------------------------------------
# backend ids
# ----------------------------------------------------------------------
class TestBackendIds:
    def test_plain(self):
        assert derive_backend_id("stabilizer") == "stabilizer"

    def test_ideal_noise_is_a_noop(self):
        noise = ReadoutNoise(p01=0.0, p10=0.0)
        assert derive_backend_id("statevector", noise) == "statevector"

    def test_readout_suffix(self):
        noise = ReadoutNoise(p01=0.01, p10=0.02)
        assert (
            derive_backend_id("statevector", noise)
            == "statevector+readout(0.01,0.02)"
        )


# ----------------------------------------------------------------------
# build_spec wiring
# ----------------------------------------------------------------------
def parametric_ansatz(n_qubits, n_params=2):
    qc = QuantumCircuit(n_qubits)
    for i in range(n_params):
        qc.rx(Parameter(f"t{i}"), i % n_qubits)
    return qc


class TestBuildSpecRouting:
    def test_ghz_routes_to_stabilizer(self):
        spec = build_spec(ghz_circuit(6), ghz_observable(6))
        assert spec.backend_id == "stabilizer"
        assert spec.force_backend == "stabilizer"
        assert spec.programs is None  # replay programs are sv-only
        assert spec.plan is not None
        assert spec.plan.job_class == CLIFFORD and not spec.plan.forced

    def test_parametric_narrow_keeps_statevector(self):
        spec = build_spec(parametric_ansatz(4), ghz_observable(4))
        assert spec.backend_id == "statevector"
        assert spec.programs is not None
        assert spec.plan.job_class == GENERAL

    def test_parametric_wide_keeps_product(self):
        spec = build_spec(parametric_ansatz(30), ghz_observable(30))
        assert spec.backend_id == "product"
        assert spec.plan.job_class == GENERAL

    def test_readout_noise_suffixes_id(self):
        spec = build_spec(
            parametric_ansatz(4),
            ghz_observable(4),
            readout_noise=ReadoutNoise(p01=0.01, p10=0.02),
        )
        assert spec.backend_id == "statevector+readout(0.01,0.02)"

    def test_reference_shares_backend_id(self):
        kernel = build_spec(parametric_ansatz(4), ghz_observable(4))
        reference = build_spec(
            parametric_ansatz(4), ghz_observable(4), reference=True
        )
        assert reference.backend_id == kernel.backend_id
        assert reference.programs is None

    def test_planned_equals_forced_cache_keys(self):
        auto = build_spec(ghz_circuit(8), ghz_observable(8))
        forced = build_spec(
            ghz_circuit(8), ghz_observable(8), force_backend="stabilizer"
        )
        assert auto.backend_id == forced.backend_id
        assert auto.structure_hash == forced.structure_hash
        vector = np.zeros(0)
        key_auto = evaluation_key(
            auto.structure_hash, vector, 100, 0, auto.backend_id
        )
        key_forced = evaluation_key(
            forced.structure_hash, vector, 100, 0, forced.backend_id
        )
        assert key_auto == key_forced
        assert forced.plan.forced and not auto.plan.forced

    def test_ghz64_evaluates_exactly(self):
        spec = build_spec(ghz_circuit(64), ghz_observable(64))
        assert spec.backend_id == "stabilizer"
        for seed in (0, 1, 2):
            value = evaluate_spec(spec, np.zeros(0), shots=300, seed=seed)
            assert value == 63.0  # exact: zero shot noise on a GHZ state

    def test_planned_equals_forced_histories(self):
        auto = build_spec(ghz_circuit(8), ghz_observable(8))
        forced = build_spec(
            ghz_circuit(8), ghz_observable(8), force_backend="stabilizer"
        )
        for seed in (0, 7):
            assert evaluate_spec(auto, np.zeros(0), 50, seed) == evaluate_spec(
                forced, np.zeros(0), 50, seed
            )


# ----------------------------------------------------------------------
# end to end: 64-qubit Clifford through the whole stack
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_hybrid_runner_ghz64(self):
        from repro import HybridRunner, QtenonSystem
        from repro.core import QtenonConfig
        from repro.runtime.engine import EvaluationEngine
        from repro.vqa import make_optimizer

        workload = ghz_workload(64)
        system = QtenonSystem(
            64,
            seed=0,
            config=QtenonConfig(n_qubits=64, regfile_entries=1024),
        )
        engine = EvaluationEngine(system, seed=0)
        runner = HybridRunner(
            engine,
            workload.ansatz,
            workload.parameters,
            workload.observable,
            make_optimizer("spsa", seed=0),
            shots=200,
            iterations=2,
        )
        result = runner.run(seed=0)
        assert result.final_cost == 63.0
        assert all(cost == 63.0 for cost in result.cost_history)

    def test_service_ghz64_with_planner_metrics(self):
        from repro.service import JobSpec, ServiceAPI, ServiceConfig
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        api = ServiceAPI(
            ServiceConfig(workers=1, cache_entries=0), telemetry=registry
        )
        spec = JobSpec(
            workload="ghz", n_qubits=64, shots=200, iterations=1, seed=3
        )
        batch = api.run_batch([("tenant", spec)])
        assert batch.accepted == 1
        job_id = batch.outcomes[0].job_id
        assert api.status(job_id)["state"] == "done"
        result = api.result(job_id)
        assert result.final_cost == 63.0
        text = api.prometheus_text()
        assert "repro_planner_decisions" in text
        assert "repro_planner_chosen_stabilizer" in text
        assert "repro_stabilizer_tableau_runs" in text

    def test_non_ascii_forced_backend_keeps_exported_names_valid(self):
        from repro.telemetry import MetricsRegistry

        ExecutionPlanner().decide(
            4, [gate_census(ghz_circuit(4))], 16, force_backend="Stäbilizer"
        )
        registry = MetricsRegistry()
        registry.register_collector(PLANNER_STATS.as_dict)
        assert "planner.chosen_st_bilizer" in registry.collect_external()

    def test_forced_backend_is_part_of_the_job_digest(self):
        from repro.service import JobSpec

        auto = JobSpec(workload="ghz", n_qubits=8)
        forced = JobSpec(workload="ghz", n_qubits=8, backend="stabilizer")
        assert auto.digest != forced.digest
        clone = JobSpec.from_dict(forced.as_dict())
        assert clone == forced and clone.digest == forced.digest
