"""The ``SweepBackend`` interface and the backend registry.

One sweep kernel contract, many implementations.  A backend evaluates a
*batch* of phase offsets against a protocol pair -- the single hot loop
behind every bound-validation experiment -- and returns per-offset
:class:`repro.simulation.analytic.DiscoveryOutcome` objects in input
order, bit-identical to the exact serial computation.  Everything above
this layer (the analytic batch entry points, :class:`ParallelSweep`,
``verified_worst_case``, the CLI) selects a backend by name and never
touches kernel internals again.

This module is dependency-light by design: it imports neither
``repro.simulation`` nor ``repro.parallel`` at module level, so the
registered implementations (which do) can depend on it without cycles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from . import _np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.sequences import NDProtocol
    from ..simulation.analytic import (
        DiscoveryOutcome,
        ReceptionModel,
        SweepReport,
    )

__all__ = [
    "BackendUnavailable",
    "CriticalSetTooLarge",
    "SweepParams",
    "SweepBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
]


class BackendUnavailable(RuntimeError):
    """A requested backend cannot run in this environment (e.g. the
    ``numpy`` backend without NumPy installed)."""


class CriticalSetTooLarge(ValueError):
    """A critical-offset enumeration tripped its ``max_count`` guard.

    Every kernel raises exactly this type (message-identical across
    backends -- the guard-parity contract) from the two enumeration
    size guards.  It subclasses :class:`ValueError` so pre-existing
    ``except ValueError`` callers keep working, but the worst-case
    engine's sampled fallback triggers **only** on this type: a plain
    ``ValueError`` out of a kernel is a genuine error and propagates
    instead of silently degrading exactness.
    """


@dataclass(frozen=True)
class SweepParams:
    """Everything that identifies one pair-sweep workload except the
    offsets themselves.

    Frozen; the ``numpy`` kernel resolves the receivers' listening
    patterns from it through the keyed cache registry.
    """

    protocol_e: "NDProtocol"
    protocol_f: "NDProtocol"
    horizon: int
    model: "ReceptionModel"
    turnaround: int = 0


class SweepBackend(ABC):
    """One offset-evaluation kernel.

    The contract mirrors :func:`repro.simulation.analytic.evaluate_offsets`:
    ``evaluate_offsets_batch(params, offsets)`` returns one
    :class:`DiscoveryOutcome` per offset, in input order, **bit-identical**
    to the exact serial computation for every protocol pair, reception
    model and turnaround guard.  Implementations may precompute patterns
    or vectorize -- but never change results.
    """

    #: Registry name: what ``RuntimeProfile.backend`` and ``--backend`` select.
    name: str = "abstract"

    @classmethod
    def available(cls) -> bool:
        """Can this backend run in the current environment?"""
        return True

    @abstractmethod
    def evaluate_offsets_batch(
        self, params: SweepParams, offsets: Sequence[int]
    ) -> "list[DiscoveryOutcome]":
        """Evaluate both-direction discovery at every offset, in order."""

    def sweep_outcomes_batch(
        self, params: SweepParams, offsets: Sequence[int]
    ) -> "tuple[SweepReport, Sequence[DiscoveryOutcome]]":
        """The batch's :class:`SweepReport` and the per-offset outcomes
        it reduces, both from one evaluation.

        The report is equal field for field to
        ``summarize_outcomes(evaluate_offsets_batch(params, offsets))``
        -- which this default is, and the reference every override is
        pinned against.  The outcomes are a sequence aligned with
        ``offsets`` whose items equal ``evaluate_offsets_batch``'s;
        kernels that can reduce without building per-offset outcomes
        override this and build each one only when it is read.
        """
        from ..simulation.analytic import summarize_outcomes

        outcomes = self.evaluate_offsets_batch(params, offsets)
        return summarize_outcomes(outcomes), outcomes

    def enumerate_critical_offsets(
        self,
        params: SweepParams,
        omega: int | None = None,
        max_count: int = 200_000,
    ) -> list[int]:
        """The pair's critical phase offsets, sorted ascending.

        The second kernel-dispatched operation (PR 5): the breakpoint
        enumeration that feeds ``verified_worst_case`` and
        ``sampling="critical"`` sweeps.  Reads ``params.protocol_e`` /
        ``params.protocol_f`` and ``params.turnaround`` -- a non-zero
        turnaround adds the receiver self-blocking guard edges to the
        breakpoint set (horizon and model still do not affect where the
        discovery-time function can change); ``omega`` adds the
        packet-length shifted window bounds and ``max_count`` is the
        explosion guard.  The contract mirrors
        :meth:`evaluate_offsets_batch`: every implementation must
        return the **bit-identical** sorted offset list -- and raise
        :class:`CriticalSetTooLarge` for the same oversized
        configurations -- as the pure-python reference
        (:func:`repro.backends.python_loop.enumerate_critical_offsets_reference`),
        which this default delegates to.
        """
        from .python_loop import enumerate_critical_offsets_reference

        return enumerate_critical_offsets_reference(
            params.protocol_e,
            params.protocol_f,
            omega,
            max_count,
            params.turnaround,
        )

    def close(self) -> None:
        """Release backend-held resources (buffers).  Stateless kernels
        need nothing.  Idempotent."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_FACTORIES: dict[str, Callable[[], SweepBackend]] = {}
_INSTANCES: dict[str, SweepBackend] = {}


def register_backend(name: str, factory: Callable[[], SweepBackend]) -> None:
    """Register ``factory`` under ``name`` (replacing any previous one).

    ``factory`` is a zero-argument callable returning a
    :class:`SweepBackend`; it may also expose ``available()`` (classes
    do, via the classmethod) to gate environment-dependent backends.
    """
    _FACTORIES[name] = factory
    # Re-registration must win: drop any singleton the old factory made.
    _INSTANCES.pop(name, None)


def available_backends() -> list[str]:
    """Names of registered backends that can run right now."""
    return [
        name
        for name, factory in _FACTORIES.items()
        if getattr(factory, "available", lambda: True)()
    ]


def default_backend_name() -> str:
    """Auto-detection: ``numpy`` when NumPy is importable, ``python``
    fallback."""
    return "numpy" if _np.np is not None else "python"


def get_backend(name: str) -> SweepBackend:
    """The shared instance registered under ``name``.

    Kernels are process-wide singletons.  Raises :class:`KeyError` for
    unknown names and :class:`BackendUnavailable` for
    registered-but-unavailable ones.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep backend {name!r}; registered: "
            f"{sorted(_FACTORIES)}"
        ) from None
    if not getattr(factory, "available", lambda: True)():
        hint = ""
        if name == "numpy":
            hint = (
                " (NumPy not importable; `pip install repro-nd[fast]`"
                " or select backend='python')"
            )
        raise BackendUnavailable(
            f"backend {name!r} is not available in this environment" + hint
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = factory()
        _INSTANCES[name] = instance
    return instance


def resolve_backend(spec: "str | SweepBackend | None") -> SweepBackend:
    """Turn a user-facing backend spec into a backend instance.

    * ``None`` or ``"auto"`` -- auto-detection via
      :func:`default_backend_name`;
    * a registered name -- the shared instance;
    * a :class:`SweepBackend` instance -- passed through unchanged.
    """
    if isinstance(spec, SweepBackend):
        return spec
    if spec is None or spec == "auto":
        spec = default_backend_name()
    return get_backend(spec)
