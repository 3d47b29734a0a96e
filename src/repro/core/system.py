"""The Qtenon system: host + controller + device on one timeline.

:class:`QtenonSystem` is the tightly coupled *platform* the paper
proposes.  It implements the platform protocol shared with the
decoupled baseline (:mod:`repro.baseline.system`):

* ``prepare(ansatz, observable)`` — transpile, lower, upload;
* ``evaluate(values, shots)`` — one circuit evaluation: incremental
  compile → ``q_update`` stream → ``q_gen`` → per-measurement-group
  ``q_run`` with overlapped result streaming → host post-processing;
  the platform is the *timing* model, and the value comes from the
  evaluation spec (:mod:`repro.runtime.engine`) under the
  content-derived seed an :class:`~repro.runtime.EvaluationEngine`
  wrapping this platform would use;
* ``finish()`` — the :class:`~repro.analysis.breakdown.ExecutionReport`.

Three feature flags map to the paper's ablations:

=====================  ==============================================
``incremental_compile``  §6.1 dynamic incremental compilation; off →
                         full re-lowering + re-upload each evaluation
``fine_grained_sync``    §6.2 soft memory barrier; off → FENCE-style
                         pull (`q_acquire`) after the run completes
``batched_transmission`` §6.3 Algorithm 1; off → one PUT per shot
=====================  ==============================================

``QtenonFeatures.hardware_only()`` (all off) is the paper's
"Qtenon w/o software" configuration (Fig. 13b).

Timing is *exposed-time* accounting: each phase contributes its
critical-path share, so the breakdown sums to the end-to-end time.
The run/post-processing overlap is a closed form over the run
timeline's arithmetic pieces (tests cross-check it against a per-PUT
loop and a DES run).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.breakdown import ExecutionReport
from repro.analysis.trace import TraceRecorder
from repro.compiler.incremental import IncrementalCompiler, UpdatePlan
from repro.compiler.lowering import QtenonProgram, WORDS_PER_ENTRY, lower
from repro.compiler.optimize import optimize as peephole_optimize
from repro.compiler.transpile import transpile
from repro.core.config import QtenonConfig
from repro.core.controller import QuantumController, RunResult
from repro.host.cores import BOOM_LARGE, CoreModel
from repro.host.workloads import HostWorkloadModel, WorkloadCosts, DEFAULT_COSTS
from repro.isa.instructions import QAcquire
from repro.memory.hierarchy import MemoryHierarchy
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.pauli import MeasurementGroup, PauliSum
from repro.quantum.device import QuantumDevice
from repro.quantum.parameters import Parameter
from repro.quantum.sampler import DEFAULT_EXACT_LIMIT
from repro.runtime.engine import (
    EvaluationSpec,
    platform_spec,
    seeded_values,
    spec_vector,
)
from repro.sim.clock import HOST_CLOCK

#: Host memory layout for the reproduction's workloads.
HOST_PROGRAM_BASE = 0x1000_0000
HOST_RESULT_BASE = 0x2000_0000


@dataclass(frozen=True)
class QtenonFeatures:
    """Software-stack feature flags (the paper's ablation axes)."""

    incremental_compile: bool = True
    fine_grained_sync: bool = True
    batched_transmission: bool = True

    @classmethod
    def full(cls) -> "QtenonFeatures":
        return cls()

    @classmethod
    def hardware_only(cls) -> "QtenonFeatures":
        """Fig. 13(b) "Qtenon w/o software": hardware plus the bare ISA.

        The ablated pieces are the §6.2 memory-consistency model and
        the §6.3 scheduling; incremental compilation stays on because
        it is inherent to the ISA's program-as-data encoding (the
        paper's Fig. 13b host-computation share — ~160 us/evaluation —
        is only reachable with it; a full per-evaluation recompile on a
        1 GHz in-order host would dwarf the baseline).  Use
        ``QtenonFeatures(incremental_compile=False)`` to model JIT
        recompilation on the Qtenon host explicitly.
        """
        return cls(
            incremental_compile=True,
            fine_grained_sync=False,
            batched_transmission=False,
        )



_TRACE_TRACK = {
    "quantum": "quantum",
    "pulse_gen": "controller",
    "host_compute": "host",
    "comm": "bus",
}


class SpecValues:
    """Where a platform's evaluation values come from.

    The platforms are latency models; their values come from the
    evaluation spec (:func:`~repro.runtime.engine.build_spec` +
    :func:`~repro.runtime.engine.evaluate_spec_batch`) under the
    content-derived seeds that an :class:`~repro.runtime.EvaluationEngine`
    built with the platform's seed derives, so a bare platform and the
    engine wrapping it give bit-identical values.  The spec is built on
    the first functional evaluation; an engine replaying the platform
    timing-only never builds it.

    Mixed into :class:`QtenonSystem` and the decoupled baseline, which
    call ``_init_values`` and set ``fault_injector``, ``timing_only``
    and ``report`` on construction, set ``_ansatz``, ``_ansatz_gates``,
    ``_observable`` and ``_prepared`` (resetting ``_spec`` to ``None``)
    in ``prepare``, and charge one sampled evaluation's timeline in
    ``_charge_runs``.
    """

    def _init_values(
        self, seed: int, exact_limit: int, backend: Optional[str], readout_noise
    ) -> None:
        """Functional routing, read by the lazily built spec and by an
        EvaluationEngine wrapping the platform."""
        self.seed = seed
        self.exact_limit = exact_limit
        self.force_backend = backend
        self.readout_noise = readout_noise
        self._spec: Optional[EvaluationSpec] = None

    def evaluate(self, values: Dict[Parameter, float], shots: int) -> float:
        """One circuit evaluation of ⟨observable⟩ at ``values``."""
        self._check_ready(shots)
        return self._record(values, shots, self._values([values], shots)[0])

    def evaluate_vectors(
        self,
        parameters: Sequence[Parameter],
        vectors: Sequence[np.ndarray],
        shots: int,
    ) -> List[float]:
        """Evaluate a probe batch: every value in one spec pass, then
        each probe's timeline in order — the values and timeline a loop
        over ``evaluate`` would give."""
        self._check_ready(shots)
        bindings = [
            {p: float(v) for p, v in zip(parameters, vector)} for vector in vectors
        ]
        values = self._values(bindings, shots)
        return [
            self._record(binding, shots, value)
            for binding, value in zip(bindings, values)
        ]

    def _check_ready(self, shots: int) -> None:
        if not self._prepared:
            raise RuntimeError("call prepare() before evaluate()")
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")

    def _values(
        self, bindings: Sequence[Dict[Parameter, float]], shots: int
    ) -> List[float]:
        """The values of the next ``len(bindings)`` evaluations."""
        if self.timing_only:
            return [_surrogate_energy(self._observable, b) for b in bindings]
        if self._spec is None:
            self._spec = platform_spec(self, self._ansatz, self._observable)
        vectors = [spec_vector(self._spec, binding) for binding in bindings]
        if shots and self.fault_injector is not None and self.readout_noise is not None:
            # Calibration drift: assignment errors grow with the
            # evaluation index until the next (modelled) recalibration.
            first = self.report.evaluations
            return [
                seeded_values(
                    replace(
                        self._spec,
                        readout_noise=self.fault_injector.drifted_readout(
                            self.readout_noise, first + offset
                        ),
                    ),
                    [vector],
                    shots,
                    self.seed,
                )[0]
                for offset, vector in enumerate(vectors)
            ]
        return seeded_values(self._spec, vectors, shots, self.seed)

    def _record(self, values: Dict[Parameter, float], shots: int, value: float) -> float:
        """Charge one evaluation's timeline and record its value.

        ``shots=0`` is the analytic path: no device run — there is
        nothing to stream, batch or post-process — so the statevector
        pass is charged as host compute.
        """
        if shots:
            self._charge_runs(values, shots)
        else:
            self.report.evaluations += 1
            self._charge(
                "host_compute",
                self.workload.analytic_expectation_ps(
                    self._ansatz_gates, len(self._observable.terms), self.n_qubits
                ),
            )
        self.report.energies.append(value)
        return value


class QtenonSystem(SpecValues):
    """Tightly coupled platform model."""

    def __init__(
        self,
        n_qubits: int,
        core: CoreModel = BOOM_LARGE,
        features: QtenonFeatures = QtenonFeatures(),
        seed: int = 0,
        config: Optional[QtenonConfig] = None,
        costs: WorkloadCosts = DEFAULT_COSTS,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        backend: Optional[str] = None,
        timing_only: bool = False,
        optimize_circuits: bool = False,
        trace_events: bool = False,
        readout_noise=None,
        fault_injector=None,
    ) -> None:
        self.config = config or QtenonConfig(n_qubits=n_qubits)
        if self.config.n_qubits < n_qubits:
            raise ValueError(
                f"config supports {self.config.n_qubits} qubits, workload needs {n_qubits}"
            )
        self.n_qubits = n_qubits
        self.core = core
        self.features = features
        #: timing-only mode: full architectural timeline, no quantum
        #: state — large sweep benches (Fig. 11/12/17) use this; the
        #: objective seen by the optimizer is a smooth deterministic
        #: surrogate so parameter trajectories stay realistic.
        self.timing_only = timing_only
        #: run the peephole optimiser before lowering (off by default so
        #: reported entry counts match the raw workload definitions).
        self.optimize_circuits = optimize_circuits
        self.clock = HOST_CLOCK

        self.hierarchy = MemoryHierarchy()
        self.fault_injector = fault_injector
        self.device = QuantumDevice(self.config.n_qubits, readout_noise=readout_noise)
        self._init_values(seed, exact_limit, backend, self.device.readout_noise)
        self.controller = QuantumController(
            self.config,
            self.hierarchy,
            self.device,
            fault_injector=fault_injector,
        )
        self.workload = HostWorkloadModel(core, costs)

        self.report = ExecutionReport(platform=f"qtenon-{core.name}")
        #: optional Chrome-trace timeline (see repro.analysis.trace)
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder(f"qtenon-{core.name}") if trace_events else None
        )
        self.now: int = 0
        self._program: Optional[QtenonProgram] = None
        self._incremental: Optional[IncrementalCompiler] = None
        self._groups: List[MeasurementGroup] = []
        self._observable: Optional[PauliSum] = None
        self._ansatz: Optional[QuantumCircuit] = None
        self._ansatz_gates = 0
        self._prepared = False

    # ------------------------------------------------------------------
    # platform protocol
    # ------------------------------------------------------------------
    def prepare(self, ansatz: QuantumCircuit, observable: PauliSum) -> None:
        """Transpile + lower the workload and upload it once."""
        if ansatz.n_qubits != self.n_qubits:
            raise ValueError(
                f"ansatz has {ansatz.n_qubits} qubits, system built for {self.n_qubits}"
            )
        self._observable = observable
        self._ansatz = ansatz.copy()
        self._ansatz_gates = ansatz.gate_count(include_measure=False)
        self._spec = None
        self._groups = observable.grouped_qubitwise() or [
            # observable with only a constant: still run & measure
            MeasurementGroup()
        ]
        group_circuits = []
        for group in self._groups:
            variant = ansatz.copy()
            variant.extend(group.basis_change_circuit(ansatz.n_qubits))
            variant.measure_all()
            native = transpile(variant)
            if self.optimize_circuits:
                native = peephole_optimize(native)
            group_circuits.append(native)
        self._program = lower(group_circuits, self.config)
        self.controller.attach_program(self._program)
        self._incremental = IncrementalCompiler(self._program)

        # Host: one-time lowering cost.
        self._charge("host_compute", self.workload.initial_lowering_ps(
            self._program.total_entries
        ))
        # Stage packed entries in host memory and upload via q_set.
        self._stage_and_upload()
        self._prepared = True

    def evaluate(self, values: Dict[Parameter, float], shots: int) -> float:
        # Defined on the class itself so profilers can wrap it in place.
        return super().evaluate(values, shots)

    def _charge_runs(self, values: Dict[Parameter, float], shots: int) -> None:
        self.report.evaluations += 1
        self.report.total_shots += shots * len(self._groups)

        plan = self._compile_step(values)
        self._issue_updates(plan)
        self._run_pulse_generation()

        # Gate durations do not depend on parameter values, so the
        # unbound group circuit carries the full timing.
        for circuit, group in zip(self._program.group_circuits, self._groups):
            run = self.controller.execute_q_run(
                circuit,
                shots,
                self.now,
                HOST_RESULT_BASE,
                batched=self.features.batched_transmission,
            )
            self._account_run(run, shots, group)

    def charge_optimizer_step(self, n_params: int, method: str) -> None:
        """Host-side optimiser update between evaluations."""
        self._charge("host_compute", self.workload.optimizer_step_ps(n_params, method))

    def charge_adjoint_gradient(self, n_params: int, energy: float) -> None:
        """Account one adjoint-mode gradient evaluation.

        The adjoint pass is pure host compute — one forward simulation
        plus one reverse sweep, no quantum shots — so the charge is
        independent of ``n_params`` and no device phases are touched.
        The analytic energy from the forward pass lands in the report
        exactly like a sampled evaluation's would.
        """
        self.report.evaluations += 1
        self._charge(
            "host_compute",
            self.workload.adjoint_gradient_ps(self._ansatz_gates, self.n_qubits),
        )
        self.report.energies.append(float(energy))

    def finish(self) -> ExecutionReport:
        self.report.end_to_end_ps = self.now
        self.report.extra.setdefault("slt_hit_rate", self._slt_hit_rate())
        if self.fault_injector is not None:
            stats = self.controller.stats
            self.report.extra.setdefault(
                "put_retransmits", float(stats.counter("put_retransmits").value)
            )
            self.report.extra.setdefault(
                "acquire_watchdog_fires",
                float(stats.counter("acquire_watchdog_fires").value),
            )
        if self.readout_noise is not None:
            self.report.extra.setdefault("readout_p01", self.readout_noise.p01)
            self.report.extra.setdefault("readout_p10", self.readout_noise.p10)
        return self.report

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _compile_step(self, values: Dict[Parameter, float]) -> UpdatePlan:
        if self.features.incremental_compile:
            plan = self._incremental.plan(values)
            self._charge(
                "host_compute", self.workload.incremental_update_ps(max(1, plan.n_updates))
            )
            return plan
        # Software disabled: the host recompiles the whole program and
        # re-uploads it, exactly like a decoupled stack would — except
        # the transfer still rides the fast unified-memory path.
        plan = self._incremental.initial_plan(values)
        self._charge(
            "host_compute", self.workload.full_compile_ps(self._program.total_entries)
        )
        self._stage_and_upload()
        return plan

    def _issue_updates(self, plan: UpdatePlan) -> None:
        cursor = self.now
        for instr in plan.instructions:
            cursor = self.controller.execute_q_update(instr, cursor)
        self._count_instr("q_update", len(plan.instructions))
        self._charge("comm", cursor - self.now, instr_kind="q_update")
        self.controller.mark_gates_dirty(plan.invalidated_gates)

    def _run_pulse_generation(self) -> None:
        pipeline_report = self.controller.execute_q_gen(self.now)
        self._count_instr("q_gen", 1)
        self.report.pulses_generated += pipeline_report.pulses_generated
        self.report.pulse_entries_processed += pipeline_report.entries_processed
        self.report.slt_hits += pipeline_report.slt_hits
        self._charge("pulse_gen", pipeline_report.duration_ps)

    def _stage_and_upload(self) -> None:
        """Write packed entries to host memory; q_set each qubit chunk."""
        cursor_addr = HOST_PROGRAM_BASE
        per_qubit_entries: Dict[int, List[int]] = {}
        for gate in self._program.gates:
            per_qubit_entries.setdefault(gate.qubit, []).append(
                gate.program_entry().pack()
            )
        for qubit in sorted(per_qubit_entries):
            for raw in per_qubit_entries[qubit]:
                self.hierarchy.image.write_bytes(
                    cursor_addr, raw.to_bytes(WORDS_PER_ENTRY * 4, "little")
                )
                cursor_addr += WORDS_PER_ENTRY * 4

        cursor = self.now
        stream = self._program.upload_instructions(HOST_PROGRAM_BASE)
        for instr in stream:
            transfer = self.controller.execute_q_set(instr, cursor)
            cursor = transfer.end_ps
        self._count_instr("q_set", len(stream))
        self._charge("comm", cursor - self.now, instr_kind="q_set")

    # ------------------------------------------------------------------
    # run/post-processing overlap
    # ------------------------------------------------------------------
    def _account_run(self, run: RunResult, shots: int, group: MeasurementGroup) -> None:
        timeline = run.timeline
        self._count_instr("q_run", 1)
        post_total = self.workload.post_process_ps(shots, self.n_qubits)
        post_total += self.workload.expectation_ps(len(group.members), shots)
        batch_fixed = self.workload.batch_handling_ps()
        per_batch_host = post_total // run.n_batches + batch_fixed

        quantum_exposed = timeline.quantum_duration_ps
        if self.features.fine_grained_sync:
            bus_done = max(timeline.quantum_end_ps, timeline.last_put_response_ps)
            end = max(bus_done, self._overlapped_host_done(timeline, per_batch_host))
            comm_exposed = timeline.comm_tail_ps
            host_exposed = end - bus_done
            comm_busy = run.n_batches * timeline.put_response_latency_ps
            host_busy = post_total + run.n_batches * batch_fixed
            self._count_instr("q_acquire", 1)  # the streamed acquire
        else:
            # FENCE path: wait for the run, pull .measure, post-process.
            acquire = self.controller.execute_q_acquire(
                QAcquire(
                    classical_addr=HOST_RESULT_BASE,
                    quantum_addr=self.config.measure_qaddr(0),
                    length=max(1, shots * max(1, -(-self.n_qubits // 64)) * 2),
                ),
                timeline.quantum_end_ps,
            )
            self._count_instr("q_acquire", 1)
            comm_exposed = acquire.duration_ps
            host_exposed = post_total + run.n_batches * batch_fixed
            end = acquire.end_ps + host_exposed
            comm_busy = comm_exposed
            host_busy = host_exposed

        self._charge_at("quantum", quantum_exposed)
        self._charge_at("comm", comm_exposed, instr_kind="q_acquire")
        self._charge_at("host_compute", host_exposed)
        self.report.busy.add("quantum", quantum_exposed)
        self.report.busy.add("comm", comm_busy)
        self.report.busy.add("host_compute", host_busy)
        if self.trace is not None:
            self.trace.record(
                "quantum", "q_run", timeline.start_ps, timeline.quantum_end_ps
            )
            for batch_no, (issue, response) in enumerate(
                zip(timeline.put_issue_times, timeline.put_response_times)
            ):
                self.trace.record("bus", f"put[{batch_no}]", issue, response)
            if host_exposed:
                self.trace.record(
                    "host", "post-process", end - host_exposed, end
                )
        self.now = end

    def _overlapped_host_done(self, timeline, per_batch_host: int) -> int:
        """When the serial host, taking each batch one barrier query after
        its PUT responds, finishes the run (Fig. 9b).  Over a piece of
        PUTs ``step`` apart it either keeps up or stays busy throughout."""
        lag = timeline.put_response_latency_ps + self.clock.period_ps
        host_free = timeline.start_ps
        for count, first, step in timeline.issue_pieces:
            host_free = max(
                host_free + count * per_batch_host,
                first + lag + per_batch_host + (count - 1) * max(step, per_batch_host),
            )
        return host_free

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _charge(self, category: str, duration_ps: int, instr_kind: Optional[str] = None) -> None:
        """Sequential phase: exposed == busy; advances the cursor."""
        self.report.breakdown.add(category, duration_ps)
        self.report.busy.add(category, duration_ps)
        if self.trace is not None:
            self.trace.record(
                _TRACE_TRACK[category],
                instr_kind or category,
                self.now,
                self.now + duration_ps,
            )
        if instr_kind is not None:
            self.report.comm_by_instruction[instr_kind] = (
                self.report.comm_by_instruction.get(instr_kind, 0) + duration_ps
            )
        self.now += duration_ps

    def _charge_at(self, category: str, duration_ps: int, instr_kind: Optional[str] = None) -> None:
        """Bucket accounting without advancing the cursor (the caller
        sets ``self.now`` from the overlap computation)."""
        self.report.breakdown.add(category, duration_ps)
        if instr_kind is not None:
            self.report.comm_by_instruction[instr_kind] = (
                self.report.comm_by_instruction.get(instr_kind, 0) + duration_ps
            )

    def _count_instr(self, mnemonic: str, n: int) -> None:
        self.report.instruction_counts[mnemonic] = (
            self.report.instruction_counts.get(mnemonic, 0) + n
        )

    def _slt_hit_rate(self) -> float:
        hits = sum(slt.hits for slt in self.controller.slts)
        misses = sum(slt.misses for slt in self.controller.slts)
        total = hits + misses
        return hits / total if total else 0.0


def _surrogate_energy(observable: PauliSum, values: Dict[Parameter, float]) -> float:
    """Smooth deterministic stand-in objective for timing-only mode.

    Keeps optimizer trajectories (and hence SLT reuse patterns)
    realistic without simulating quantum state: a separable cosine
    landscape scaled to the observable's coefficient mass.
    """
    import math

    scale = sum(abs(coeff) for coeff, _ in observable.terms) or 1.0
    phase = sum(
        math.cos(value + 0.37 * i) for i, value in enumerate(values.values())
    )
    n = max(1, len(values))
    return observable.constant - scale * phase / n
