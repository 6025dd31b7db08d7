"""The fast hot-path simulation engine (vectorized).

``SimBackend`` selects between the scalar golden-reference path and the
vectorized fast path; ``run_activation_batch_vectorized`` is the numpy
whole-batch kernel behind
:meth:`repro.dram.module.SimulatedDram.activate_batch`, and
``run_activation_batch`` its exact per-ACT fallback loop.

The vectorized names resolve lazily (PEP 562) so importing the engine
package — which the DRAM layer does for ``SimBackend`` — never requires
numpy.
"""

from typing import Any

from repro.engine.backend import BackendError, SimBackend
from repro.engine.batch import BatchedDisturbanceModel, run_activation_batch

_VECTOR_NAMES = (
    "VectorizedDisturbanceModel",
    "bulk_uniforms",
    "run_activation_batch_vectorized",
)

__all__ = [
    "BackendError",
    "BatchedDisturbanceModel",
    "SimBackend",
    "run_activation_batch",
    *_VECTOR_NAMES,
]


def __getattr__(name: str) -> Any:
    if name in _VECTOR_NAMES:
        from repro.engine import vector

        return getattr(vector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
