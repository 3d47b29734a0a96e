"""The hybrid quantum-classical driver.

:class:`HybridRunner` is the algorithm-level loop of Fig. 2: it feeds
circuit evaluations to a *platform* (Qtenon or the decoupled baseline
— anything implementing ``prepare`` / ``evaluate`` /
``charge_optimizer_step`` / ``finish``) under an optimizer, and
returns both the optimisation trace and the platform's timing report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.analysis.breakdown import ExecutionReport
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.parameters import Parameter
from repro.quantum.pauli import PauliSum
from repro.vqa.optimizers import Optimizer


class Platform(Protocol):
    """What a hybrid execution platform must provide.

    Platforms *may* additionally expose the batch entry point
    ``evaluate_vectors(parameters, vectors, shots) -> List[float]`` (both
    platforms and :class:`repro.runtime.EvaluationEngine` do); the runner
    feature-detects it and routes the optimizers' independent probe
    batches through it.
    """

    def prepare(self, ansatz: QuantumCircuit, observable: PauliSum) -> None: ...

    def evaluate(self, values: Dict[Parameter, float], shots: int) -> float: ...

    def charge_optimizer_step(self, n_params: int, method: str) -> None: ...

    def finish(self) -> ExecutionReport: ...


@dataclass
class HybridResult:
    """Optimisation trace plus the platform's execution report."""

    report: ExecutionReport
    final_params: np.ndarray
    final_cost: float
    cost_history: List[float]

    @property
    def best_cost(self) -> float:
        return min(self.cost_history) if self.cost_history else float("nan")


class HybridRunner:
    """Runs ``iterations`` optimizer steps of a VQA on a platform."""

    def __init__(
        self,
        platform: Platform,
        ansatz: QuantumCircuit,
        parameters: Sequence[Parameter],
        observable: PauliSum,
        optimizer: Optimizer,
        shots: int = 500,
        iterations: int = 10,
    ) -> None:
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.platform = platform
        self.ansatz = ansatz
        self.parameters = list(parameters)
        self.observable = observable
        self.optimizer = optimizer
        self.shots = shots
        self.iterations = iterations

    def run(self, initial_params: Optional[np.ndarray] = None, seed: int = 0) -> HybridResult:
        """Execute the full hybrid loop.

        Every run is self-contained: the optimizer is ``reset()`` to
        its own seed before the first iteration, so a reused optimizer
        (restarts, sweeps, the job service's retries) cannot leak RNG
        state from one run into the next — two runs with the same
        ``seed=`` are bit-identical.  All randomness flows through
        per-object ``np.random.default_rng`` generators (the ``vqa``
        package never touches the global numpy RNG), which the test
        suite audits.
        """
        if initial_params is None:
            rng = np.random.default_rng(seed)
            params = rng.uniform(-0.5, 0.5, size=len(self.parameters))
        else:
            params = np.asarray(initial_params, dtype=float)
            if params.size != len(self.parameters):
                raise ValueError(
                    f"got {params.size} initial values for {len(self.parameters)} parameters"
                )

        # A fresh run must not continue a previous run's random stream.
        self.optimizer.reset()
        self.platform.prepare(self.ansatz, self.observable)

        def bind(vector: np.ndarray) -> Dict[Parameter, float]:
            return {p: float(v) for p, v in zip(self.parameters, vector)}

        def evaluate(vector: np.ndarray) -> float:
            return self.platform.evaluate(bind(vector), self.shots)

        evaluate_many = None
        platform_vectors = getattr(self.platform, "evaluate_vectors", None)
        if callable(platform_vectors):
            # Hand the raw optimizer vectors over with the parameter
            # ordering: the platform evaluates the batch in one pass.
            def evaluate_many(vectors: Sequence[np.ndarray]) -> List[float]:
                return platform_vectors(self.parameters, vectors, self.shots)

        evaluate_gradient = None
        platform_gradients = getattr(self.platform, "evaluate_gradients", None)
        if callable(platform_gradients):
            # Adjoint fast path (repro.runtime.EvaluationEngine): one
            # analytic pass yields energy + full gradient.  A ``None``
            # reply means the platform cannot serve this workload
            # adjointly and the optimizer falls back to its probes.
            def evaluate_gradient(vector: np.ndarray):
                result = platform_gradients(self.parameters, [vector], self.shots)
                if result is None:
                    return None
                energies, grads = result
                return float(energies[0]), np.asarray(grads[0], dtype=np.float64)

        history: List[float] = []
        cost = float("nan")
        for _ in range(self.iterations):
            outcome = self.optimizer.run_iteration(
                params,
                evaluate,
                evaluate_many=evaluate_many,
                evaluate_gradient=evaluate_gradient,
            )
            params, cost = outcome.params, outcome.cost
            history.append(cost)
            self.platform.charge_optimizer_step(len(self.parameters), self.optimizer.method)

        report = self.platform.finish()
        report.iterations = self.iterations
        return HybridResult(
            report=report,
            final_params=params,
            final_cost=cost,
            cost_history=history,
        )
