"""The decoupled baseline platform (paper §7.1 baseline configuration).

An i9 host talks to an FPGA quantum controller over a network link;
execution is strictly sequential (Table 1 "Execution: Sequential"):

  compile (full JIT) → upload binary → FPGA pulse generation →
  quantum shots (with ADI crossings) → download results → host
  post-processing

No overlap, no incremental compilation, no pulse reuse.  The class
implements the same platform protocol as
:class:`repro.core.system.QtenonSystem`, so the benchmark harness and
the :class:`~repro.vqa.runner.HybridRunner` drive both identically —
including where values come from: the evaluation spec, seeded exactly
as an :class:`~repro.runtime.EvaluationEngine` wrapping it would be.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.breakdown import ExecutionReport
from repro.baseline.fpga import FpgaConfig, FpgaController
from repro.baseline.jit import JitCompiler
from repro.baseline.network import LinkModel, LinkTracker, UDP_100GBE
from repro.compiler.transpile import transpile
from repro.host.cores import CoreModel, INTEL_I9
from repro.host.workloads import DEFAULT_COSTS, HostWorkloadModel, WorkloadCosts
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.device import QuantumDevice
from repro.quantum.pauli import MeasurementGroup, PauliSum
from repro.quantum.parameters import Parameter
from repro.quantum.sampler import DEFAULT_EXACT_LIMIT
from repro.core.scheduler import shot_record_bytes
from repro.core.system import SpecValues


class DecoupledSystem(SpecValues):
    """Decoupled host + FPGA + quantum chip platform model."""

    def __init__(
        self,
        n_qubits: int,
        core: CoreModel = INTEL_I9,
        link: LinkModel = UDP_100GBE,
        fpga_config: FpgaConfig = FpgaConfig(),
        seed: int = 0,
        costs: WorkloadCosts = DEFAULT_COSTS,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        backend: Optional[str] = None,
        timing_only: bool = False,
        readout_noise=None,
        fault_injector=None,
    ) -> None:
        self.n_qubits = n_qubits
        self.core = core
        self.fault_injector = fault_injector
        self.link = LinkTracker(link, fault_injector=fault_injector)
        self.fpga = FpgaController(fpga_config)
        self.device = QuantumDevice(n_qubits, readout_noise=readout_noise)
        self._init_values(seed, exact_limit, backend, self.device.readout_noise)
        self.workload = HostWorkloadModel(core, costs)
        self.jit = JitCompiler(self.workload)
        #: timing-only mode (see QtenonSystem): identical modelled
        #: times, surrogate values instead of evaluating the spec.
        self.timing_only = timing_only

        self.report = ExecutionReport(platform=f"decoupled-{core.name}")
        self.now: int = 0
        self._groups: List[MeasurementGroup] = []
        self._group_templates: List[QuantumCircuit] = []
        self._observable: Optional[PauliSum] = None
        self._ansatz: Optional[QuantumCircuit] = None
        self._ansatz_gates = 0
        self._prepared = False

    # ------------------------------------------------------------------
    # platform protocol
    # ------------------------------------------------------------------
    def prepare(self, ansatz: QuantumCircuit, observable: PauliSum) -> None:
        """Store templates; decoupled stacks compile at evaluate time."""
        if ansatz.n_qubits != self.n_qubits:
            raise ValueError(
                f"ansatz has {ansatz.n_qubits} qubits, system built for {self.n_qubits}"
            )
        self._observable = observable
        self._ansatz = ansatz.copy()
        self._ansatz_gates = ansatz.gate_count(include_measure=False)
        self._spec = None
        self._groups = observable.grouped_qubitwise() or [MeasurementGroup()]
        self._group_templates = []
        for group in self._groups:
            variant = ansatz.copy()
            variant.extend(group.basis_change_circuit(ansatz.n_qubits))
            variant.measure_all()
            self._group_templates.append(transpile(variant))
        self._prepared = True

    def _charge_runs(self, values: Dict[Parameter, float], shots: int) -> None:
        self.report.evaluations += 1
        self.report.total_shots += shots * len(self._groups)
        for group, template in zip(self._groups, self._group_templates):
            self._run_group(group, template, shots)

    def charge_optimizer_step(self, n_params: int, method: str) -> None:
        self._charge("host_compute", self.workload.optimizer_step_ps(n_params, method))

    def charge_adjoint_gradient(self, n_params: int, energy: float) -> None:
        """Account one adjoint-mode gradient pass (pure host compute)."""
        self.report.evaluations += 1
        self._charge(
            "host_compute",
            self.workload.adjoint_gradient_ps(self._ansatz_gates, self.n_qubits),
        )
        self.report.energies.append(float(energy))

    def finish(self) -> ExecutionReport:
        self.report.end_to_end_ps = self.now
        self.report.extra.setdefault("link_messages", float(self.link.messages))
        self.report.extra.setdefault("jit_compilations", float(self.jit.compilations))
        if self.fault_injector is not None:
            self.report.extra.setdefault(
                "link_retransmits", float(self.link.retransmits)
            )
            self.report.extra.setdefault(
                "link_recovery_ps", float(self.link.recovery_ps)
            )
        if self.readout_noise is not None:
            self.report.extra.setdefault("readout_p01", self.readout_noise.p01)
            self.report.extra.setdefault("readout_p10", self.readout_noise.p10)
        return self.report

    # ------------------------------------------------------------------
    def _run_group(
        self, group: MeasurementGroup, template: QuantumCircuit, shots: int
    ) -> None:
        # 1. full JIT recompilation on the host.
        output = self.jit.compile_timing_only(template)
        self._charge("host_compute", output.compile_time_ps)
        self._count_instr("static_quantum", output.instruction_count)

        # 2. binary upload over the link.
        self._charge("comm", self.link.send(output.binary_bytes), kind="upload")

        # 3. FPGA regenerates every pulse (no reuse).
        pulses = output.circuit.gate_count(include_measure=False)
        self._charge("pulse_gen", self.fpga.pulse_generation_ps(pulses))
        self.report.pulses_generated += pulses
        self.report.pulse_entries_processed += pulses

        # 4. quantum execution: shots x (circuit + ADI round trip).
        shot_ps = self.device.shot_duration_ps(output.circuit)
        shot_ps += self.fpga.adi_round_trip_ps()
        self._charge("quantum", shots * shot_ps)

        # 5. results travel back in one message.
        result_bytes = shots * shot_record_bytes(self.n_qubits)
        self._charge("comm", self.link.send(result_bytes), kind="download")

        # 6. host post-processing.
        post = self.workload.post_process_ps(shots, self.n_qubits)
        post += self.workload.expectation_ps(len(group.members), shots)
        self._charge("host_compute", post)

    # ------------------------------------------------------------------
    def _charge(self, category: str, duration_ps: int, kind: Optional[str] = None) -> None:
        # Strictly sequential execution: exposed time == busy time.
        self.report.breakdown.add(category, duration_ps)
        self.report.busy.add(category, duration_ps)
        if kind is not None:
            self.report.comm_by_instruction[kind] = (
                self.report.comm_by_instruction.get(kind, 0) + duration_ps
            )
        self.now += duration_ps

    def _count_instr(self, mnemonic: str, n: int) -> None:
        self.report.instruction_counts[mnemonic] = (
            self.report.instruction_counts.get(mnemonic, 0) + n
        )
