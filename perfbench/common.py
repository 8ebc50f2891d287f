"""Shared helpers: paths, statistics, failure taxonomy, memory, provenance."""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from .clock import unqueued_clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, span dumps and pass results (git-ignored).
WORK = BENCH_DIR / "_work"


def child_env() -> dict:
    """Environment for the benchmark's subprocesses: the program from
    ``src/`` and the benchmark package importable, nothing inherited
    that could redirect the runtime (profiles, backend overrides)."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def python_cmd(script: str, *args) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *map(str, args)]


def canonical(payload) -> str:
    """The byte form payloads are compared in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Failures:
    """Failed operations counted by class against the attempted total.

    Classes: ``error:<envelope or exception type>``, ``overload``,
    ``job_failed``, ``timeout``, ``des_disagreement`` and
    ``mismatch:<check>`` (a failed correctness check).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.counts: collections.Counter = collections.Counter()

    def add(self, kind: str, n: int = 1) -> None:
        self.counts[kind] += n

    @property
    def failed(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict:
        return dict(sorted(self.counts.items()))


def payload_mismatches(expected: dict, observed) -> list:
    """Keys whose observed payload differs from the expected canonical
    bytes (``observed``: ``(key, payload)`` pairs)."""
    return [key for key, payload in observed if expected.get(key) != canonical(payload)]


# ----------------------------------------------------------------------
# Memory: peak resident set of this process plus every descendant
# ----------------------------------------------------------------------
def _read_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _descendants(root: int) -> list[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        children = [child for child, parent in parents.items() if parent == pid]
        found.extend(children)
        frontier.extend(children)
    return found


def tree_rss_kib(root: int, exclude: set[int]) -> int:
    """Summed RSS of ``root`` and its descendants, ``exclude`` left out."""
    pids = [root, *_descendants(root)]
    return sum(_read_kib(p, "VmRSS:") for p in pids if p not in exclude)


class RssSampler:
    """Peak summed RSS of this process and its descendants, sampled
    every ``interval`` seconds by a helper process (``helper.py rss``).
    The benchmark's own helpers (``exclude``) do not count.

    The sampling runs outside this process: a scan of ``/proc`` costs
    time in proportion to the host's process count, and on a thread here
    it would hold the GIL the measured work needs.  On exit ``peak_mib``
    is the largest sum seen (never below this process's own high-water
    mark)."""

    def __init__(self, interval: float = 0.1, exclude=()) -> None:
        self.interval = interval
        self.exclude = list(exclude)
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "RssSampler":
        self._proc = subprocess.Popen(
            python_cmd("helper.py", "rss", os.getpid(), self.interval, *self.exclude),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        if self._proc.stdout.readline().strip() != "ready":
            finish(self._proc)
            raise RuntimeError("the RSS sampler did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            out, _ = self._proc.communicate(timeout=60)  # EOF on stdin stops it
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        peak = int(out.split()[-1]) if out.split() else 0
        own = _read_kib(os.getpid(), "VmHWM:")
        self.peak_mib = max(peak, own) / 1024.0


# ----------------------------------------------------------------------
# Host speed: times scaled to a reference speed
# ----------------------------------------------------------------------
#: Median time of one :class:`SpeedProbe` pass on the reference host (a
#: shared 2-vCPU x86-64 VM, Python 3.11, NumPy 2.4).  A scaled time is
#: the time the same work would have taken there at that speed.
PROBE_REFERENCE_S = 0.022


class SpeedProbe:
    """A fixed piece of CPU work, timed to gauge the host's speed now.

    On a shared host the same work runs up to twice as slowly while
    other tenants load it, in phases of seconds to minutes, and the
    process's own CPU time slows with it (nothing is stolen that the
    clock could subtract).  The probe mixes the kinds of work the
    program does -- interpreter loops, dict updates, small-array NumPy
    calls and one large ``searchsorted`` -- and is benchmark code: no
    change to the program can speed it up or slow it down.

    :meth:`factor` runs it once and returns ``PROBE_REFERENCE_S /
    elapsed``; a time measured just before, multiplied by it, reads as
    the reference host would have read it.  It is timed on
    ``unqueued_clock``, like every time it scales.
    """

    def __init__(self) -> None:
        try:
            import numpy
        except ImportError:
            numpy = None
        self._np = numpy
        if numpy is not None:
            rng = numpy.random.default_rng(1)
            self._sorted = numpy.sort(rng.integers(0, 1 << 30, 200_000))
            self._keys = rng.integers(0, 1 << 30, 20_000)
            self._small = numpy.arange(64)
        self._work()  # warm-up: first-call costs are not the host's speed

    def _work(self) -> int:
        table, total = {}, 0
        for i in range(40_000):
            table[i & 1023] = i
            total += (i * 7) % 13
        np = self._np
        if np is not None:
            index = np.minimum(np.searchsorted(self._sorted, self._keys), len(self._sorted) - 1)
            total += int(((self._sorted[index] - self._keys) % 97).sum())
            for i in range(2_000):
                total += int((self._small * i % 13).max())
        return total

    def factor(self) -> float:
        started = unqueued_clock()
        self._work()
        return PROBE_REFERENCE_S / (unqueued_clock() - started)


class ProbeMeanwhile:
    """:class:`SpeedProbe` passes on a thread of this process while it
    only waits for another process (a set-up); :attr:`factor` is their
    mean and scales that process's time.  A set-up takes seconds, over
    which the host's speed moves: one probe after it misjudged the host
    by up to 40% either way, the mean over its whole span did not."""

    def __init__(self) -> None:
        self._probe = SpeedProbe()
        self._factors: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(0.05):
            self._factors.append(self._probe.factor())

    def __enter__(self) -> "ProbeMeanwhile":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        if not self._factors:  # a set-up shorter than one pause
            self._factors.append(self._probe.factor())
        self.factor = statistics.fmean(self._factors)


class Window:
    """The timed window of a serial closed loop (one operation in flight),
    cut into segments of about :attr:`SEGMENT_S` seconds of wall time
    with a :class:`SpeedProbe` after each.

    The loop times each operation so that other processes' share of the
    CPUs drops out (``perfbench/clock.py``) and passes it to :meth:`add`.
    Every latency of a segment is scaled by the factor of the probe that
    follows it: the host's own speed changes within seconds, so the
    nearest probe is the one that tells.  Throughput is work over the
    summed scaled latencies; the loop's own bookkeeping and the probes
    lie outside it.
    The window ends once its segments add up to ``seconds``.

    Latency percentiles are medians over groups of consecutive segments
    that hold at least :attr:`GROUP_OPS` operations each (enough for ten
    samples beyond the p90 of every group): a stretch where the probes
    misjudge the host then moves one group, not the run's percentile.

    The loop calls :meth:`add` per operation and then :meth:`tick`.
    """

    SEGMENT_S = 0.2
    GROUP_OPS = 200

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.probe = SpeedProbe()
        self.factors: list[float] = []
        self.groups: list[list[float]] = []  # scaled latencies, seconds
        self.work = 0.0
        self.busy_s = 0.0                  # summed scaled latencies
        self.raw_busy_s = 0.0              # the same, unscaled
        self.measured_s = 0.0              # wall length of all segments
        self._open: list[tuple[float, float]] = []
        self._segment_start = time.perf_counter()

    @property
    def done(self) -> bool:
        return self.measured_s >= self.seconds

    def add(self, latency: float, work: float = 1.0) -> None:
        self._open.append((latency, work))

    def tick(self) -> None:
        if time.perf_counter() - self._segment_start >= self.SEGMENT_S:
            self.close()

    def close(self) -> None:
        self.measured_s += time.perf_counter() - self._segment_start
        factor = self.probe.factor()
        self.factors.append(factor)
        if not self.groups or len(self.groups[-1]) >= self.GROUP_OPS:
            self.groups.append([])
        scaled = [latency * factor for latency, _ in self._open]
        self.groups[-1] += scaled
        self.busy_s += sum(scaled)
        self.raw_busy_s += sum(latency for latency, _ in self._open)
        self.work += sum(work for _, work in self._open)
        self._open = []
        self._segment_start = time.perf_counter()

    def metrics(self) -> dict:
        groups = self.groups
        if len(groups) > 1 and len(groups[-1]) < self.GROUP_OPS:
            groups = groups[:-2] + [groups[-2] + groups[-1]]  # a short tail joins
        return {
            "throughput_per_s": self.work / self.busy_s,
            "latency_p50_ms": 1e3 * median([percentile(g, 0.5) for g in groups]),
            "latency_p90_ms": 1e3 * median([percentile(g, 0.9) for g in groups]),
        }

    def detail(self) -> dict:
        """The probe factors' spread, as measured (for the run's log)."""
        quartiles = statistics.quantiles(self.factors, n=4) if len(
            self.factors) > 1 else [median(self.factors)] * 3
        return {"probes": len(self.factors),
                "speed_factor_quartiles": [round(q, 4) for q in quartiles],
                "unscaled_throughput_per_s": self.work / self.raw_busy_s,
                "measured_s": self.measured_s}


# ----------------------------------------------------------------------
# Set-up timing
# ----------------------------------------------------------------------
def time_until_ready(cmd: list[str], marker: str, timeout: float = 120.0):
    """Start ``cmd`` and return ``(seconds, process, line)`` once its
    stdout prints a line containing ``marker``: process start to ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=child_env(), cwd=ROOT,
    )
    deadline = started + timeout
    for line in proc.stdout:
        if marker in line:
            return time.perf_counter() - started, proc, line
        if time.perf_counter() > deadline:
            break
    proc.kill()
    proc.wait()
    raise RuntimeError(f"{cmd[1:3]} never printed {marker!r}")


def finish(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """Wait for a helper process, killing it past ``timeout``."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def source_revision() -> str:
    """The git sha of the checkout, else a digest of ``src/`` (the
    benchmark may run from an exported tree with no git metadata, which
    may itself sit inside some other repository)."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def provenance(workload: str, seed: int, params: dict) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "revision": source_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": have_numba,
        "workload": workload,
        "seed": seed,
        "params": params,
    }
