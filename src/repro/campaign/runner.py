"""Resumable campaign execution over a content-addressed result store.

:class:`CampaignRunner` expands a :class:`~repro.campaign.Campaign`
into its lattice of RunSpecs and drives each one through a
store-backed :class:`~repro.api.Session`.  Entries whose fingerprint
is already in the store are satisfied by a lookup; only missing
fingerprints execute.  A JSON **manifest** is atomically rewritten
after every entry, so an interrupted campaign (Ctrl-C, OOM, machine
loss) resumes by simply re-running the same command: completed
entries hit the store and are skipped, and the manifest converges to
``complete: true``.  On resume the manifest **merges** into its
previous self -- records carried by an existing manifest (statuses,
wall-clock, error strings) survive until the entry is actually
re-processed, so an interrupted or capped rerun never loses what an
earlier invocation learned.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from ..api.session import Session
from ..store import ResultStore
from .campaign import Campaign

__all__ = ["CampaignRunner", "MANIFEST_FORMAT"]

#: Manifest schema version.
MANIFEST_FORMAT = 1


def _atomic_write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CampaignRunner:
    """Execute a campaign against a result store (see module docstring).

    Parameters
    ----------
    campaign:
        A :class:`Campaign` (use :meth:`Campaign.from_file` for files).
    store:
        A :class:`~repro.store.ResultStore` or a path for one.
    profile:
        Optional :class:`~repro.api.RuntimeProfile` for the owned
        Session.  Runtime-only: it never affects fingerprints, so a
        campaign resumed under a different profile still hits the
        same entries.
    manifest_path:
        Where to write the manifest; defaults to
        ``results/campaigns/<name>.json``.
    """

    def __init__(self, campaign: Campaign, store, profile=None, manifest_path=None):
        self.campaign = campaign
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.profile = profile
        self.manifest_path = (
            Path(manifest_path)
            if manifest_path is not None
            else Path("results") / "campaigns" / f"{campaign.name}.json"
        )

    # ------------------------------------------------------------------
    def _fingerprints(self, entries):
        return [
            ResultStore.fingerprint(entry.verb, entry.spec) for entry in entries
        ]

    def _prior_records(self) -> dict:
        """fingerprint -> entry record from an existing manifest for
        *this* campaign; empty when there is nothing usable to merge
        (no manifest, unreadable, other campaign, other format)."""
        try:
            prior = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if (
            not isinstance(prior, dict)
            or prior.get("format") != MANIFEST_FORMAT
            or prior.get("campaign") != self.campaign.name
        ):
            return {}
        records = {}
        for record in prior.get("entries", ()):
            if isinstance(record, dict) and record.get("fingerprint"):
                records[record["fingerprint"]] = record
        return records

    def _manifest_skeleton(self, entries, fingerprints) -> dict:
        """The run's starting manifest, **merged** with any prior one.

        Records are keyed by fingerprint (stable across campaign-file
        reloads and lattice edits), and a prior record's status, source,
        wall-clock and error string carry over until this run actually
        re-processes the entry -- so a resumed or capped invocation
        never discards what an earlier one recorded.
        """
        prior = self._prior_records()
        records = []
        for entry, fp in zip(entries, fingerprints):
            record = {
                "index": entry.index,
                "label": entry.label,
                "verb": entry.verb,
                "fingerprint": fp,
                "status": "pending",
            }
            carried = prior.get(fp)
            if carried is not None:
                for key in ("status", "source", "seconds", "error"):
                    if key in carried:
                        record[key] = carried[key]
            records.append(record)
        manifest = {
            "format": MANIFEST_FORMAT,
            "campaign": self.campaign.name,
            "store": str(self.store.root),
            "total": len(entries),
            "executed": 0,
            "hits": 0,
            "failed": 0,
            "complete": False,
            "entries": records,
        }
        self._summarize(manifest)
        return manifest

    @staticmethod
    def _summarize(manifest: dict) -> None:
        records = manifest["entries"]
        manifest["executed"] = sum(
            1 for r in records if r.get("source") == "executed"
        )
        manifest["hits"] = sum(1 for r in records if r.get("source") == "hit")
        manifest["failed"] = sum(1 for r in records if r["status"] == "failed")
        manifest["complete"] = all(r["status"] == "done" for r in records)

    def _checkpoint(self, manifest: dict) -> None:
        self._summarize(manifest)
        _atomic_write_json(self.manifest_path, manifest)

    # ------------------------------------------------------------------
    # Per-entry execution
    # ------------------------------------------------------------------
    @staticmethod
    def _process_entry(session, entry):
        """Drive one entry through ``session``; returns
        ``(record patch, executed flag)``.  Exceptions are isolated to
        the entry's record; KeyboardInterrupt propagates."""
        start = time.perf_counter()
        try:
            result = getattr(session, entry.verb)(entry.spec)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            return (
                {
                    "status": "failed",
                    "error": f"{type(exc).__name__}: {exc}",
                    "seconds": time.perf_counter() - start,
                },
                False,
            )
        meta = result.store_meta or {}
        hit = bool(meta.get("hit"))
        return (
            {
                "status": "done",
                "source": "hit" if hit else "executed",
                "seconds": time.perf_counter() - start,
            },
            not hit,
        )

    @staticmethod
    def _apply(record: dict, patch: dict) -> None:
        """Replace a record's outcome fields with this run's patch
        (stale carried-over keys must not survive a fresh outcome)."""
        for key in ("status", "source", "seconds", "error"):
            record.pop(key, None)
        record.update(patch)

    @staticmethod
    def _mark_capped(record: dict) -> None:
        """``max_runs`` prevented this entry from executing.  A prior
        *failed* record keeps its error string (the whole point of the
        manifest merge); anything else -- including a stale ``done``
        whose store entry has since been evicted -- becomes a plain
        ``skipped``."""
        if record.get("status") == "failed":
            return
        CampaignRunner._apply(record, {"status": "skipped"})

    # ------------------------------------------------------------------
    def run(
        self,
        max_runs: int | None = None,
        session: Session | None = None,
    ) -> dict:
        """Run the campaign; returns the final manifest dict.

        ``max_runs`` caps how many entries may *execute* (store
        misses); store hits are always processed, so a capped rerun
        still makes forward progress through the remaining lattice.
        A per-entry exception marks that entry ``failed`` and moves
        on; KeyboardInterrupt propagates (the manifest on disk is
        already current up to the interrupted entry).

        ``session`` overrides the runner-owned session (which runs under
        ``profile`` and is closed on return).
        """
        entries = self.campaign.expand()
        fingerprints = self._fingerprints(entries)
        manifest = self._manifest_skeleton(entries, fingerprints)
        _atomic_write_json(self.manifest_path, manifest)
        own_session = session is None
        if own_session:
            session = Session(self.profile, store=self.store)
        executed = 0
        try:
            for entry, fp, record in zip(
                entries, fingerprints, manifest["entries"]
            ):
                will_execute = fp not in self.store
                if (
                    will_execute
                    and max_runs is not None
                    and executed >= max_runs
                ):
                    self._mark_capped(record)
                    self._checkpoint(manifest)
                    continue
                patch, did_execute = self._process_entry(session, entry)
                if did_execute:
                    executed += 1
                self._apply(record, patch)
                self._checkpoint(manifest)
        finally:
            if own_session:
                session.close()
        return manifest

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Store-membership view of the campaign without executing
        anything: which fingerprints are present, which are missing."""
        entries = self.campaign.expand()
        fingerprints = self._fingerprints(entries)
        missing = [
            {"index": entry.index, "label": entry.label, "fingerprint": fp}
            for entry, fp in zip(entries, fingerprints)
            if fp not in self.store
        ]
        return {
            "campaign": self.campaign.name,
            "store": str(self.store.root),
            "total": len(entries),
            "stored": len(entries) - len(missing),
            "missing": missing,
            "complete": not missing,
            "manifest": str(self.manifest_path),
            "manifest_exists": self.manifest_path.exists(),
        }
