"""The single legacy-compatibility path behind every deprecated shim.

PR 4 rebuilt the public surface around :class:`repro.api.Session`; the
old per-call runtime kwargs (``backend=``, ``jobs=``,
``mp_context=``) on ``evaluate_offsets`` / ``sweep_offsets`` /
``verified_worst_case`` / ``sweep_network_grid`` keep working as thin
shims over the facade, but every one of them funnels through this
module -- one warning category, one emit helper, one shared-session
cache -- so deprecation policy lives in exactly one place.

* :class:`LegacyRuntimeAPIWarning` is a :class:`DeprecationWarning`
  subclass: silent for end users by default, and the facade-only CI
  lane runs with ``-W error::DeprecationWarning`` so *internal* code
  can never regress into calling a shim.
* :func:`warn_legacy` is the only ``warnings.warn`` call the shims use.
* :func:`legacy_session` hands shims a process-shared, never-closed
  :class:`~repro.api.Session` per profile shape.  That preserves the
  PR-3 semantics legacy callers rely on -- e.g. repeated
  ``sweep_network_grid(jobs=4)`` calls amortizing one persistent
  pool -- with the ``atexit`` backstop as their cleanup,
  exactly as before.  Code that wants deterministic shutdown uses a
  ``with Session(...)`` block instead; that is the whole point.
"""

from __future__ import annotations

import warnings

__all__ = ["LegacyRuntimeAPIWarning", "legacy_session", "warn_legacy"]


class LegacyRuntimeAPIWarning(DeprecationWarning):
    """A per-call runtime kwarg (``backend=``/``jobs=``/``mp_context=``)
    was used on a pre-Session entry point."""


def warn_legacy(entry_point: str, replacement: str, stacklevel: int = 3) -> None:
    """Emit the one deprecation warning every legacy shim shares."""
    warnings.warn(
        f"{entry_point} is deprecated: configure runtime behaviour once on "
        f"a repro.api.RuntimeProfile and call {replacement} instead",
        LegacyRuntimeAPIWarning,
        stacklevel=stacklevel,
    )


#: Shared sessions for the legacy shims, keyed by profile shape.  Never
#: closed explicitly -- legacy callers never had deterministic cleanup,
#: and closing per call would destroy the persistent-pool amortization
#: they rely on; the existing ``atexit`` backstop reaps any pools.
_LEGACY_SESSIONS: dict[tuple, "object"] = {}


def legacy_session(**profile_fields):
    """The shared facade session for one legacy runtime-kwarg shape."""
    from .session import Session
    from .spec import RuntimeProfile

    profile = RuntimeProfile(**profile_fields)
    key = profile.cache_key()
    session = _LEGACY_SESSIONS.get(key)
    if session is None:
        session = Session(profile)
        # Legacy callers keep the pre-Session pool semantics: shared
        # pools outlive any one call (atexit is their backstop), and a
        # shim must never pin a refcount that would stop a concurrent
        # `with Session(...)` from deterministically shutting down the
        # pool it owns.
        session._owns_pools = False
        _LEGACY_SESSIONS[key] = session
    return session
