"""Property test: the bisected window lookups equal a linear scan.

Both reception-window lookups -- ``Node._window_segments`` in the
event-driven simulator and ``analytic._window_segments`` in the exact
pair computation -- bisect the schedule's sorted window ends instead of
scanning every window of every period instance.  Hypothesis compares
each with the linear scan kept below on random multi-window schedules,
under ideal clocks, drifting clocks at +-(1..200) ppm (where the global
<-> local mapping rounds), late device boots (``start_time > 0``) and
non-integer window grids.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sequences import NDProtocol, ReceptionSchedule, ReceptionWindow
from repro.simulation.analytic import _window_segments
from repro.simulation.channel import Channel
from repro.simulation.clock import DriftingClock, IdealClock
from repro.simulation.engine import Simulator
from repro.simulation.node import Node


def linear_window_segments(reception, to_global, to_local, lo, hi):
    """Every window of every instance that can touch ``[lo, hi)``,
    tested one by one (local schedule time -> global via ``to_global``)."""
    if hi <= lo:
        return []
    period = reception.period
    instance = (to_local(lo) - period) // period
    segments = []
    while True:
        base = instance * period
        if to_global(base) >= hi:
            break
        for w in reception.windows:
            w_lo = to_global(base + w.start)
            w_hi = to_global(base + w.end)
            if w_lo < hi and w_hi > lo:
                segments.append((max(w_lo, lo), min(w_hi, hi)))
        instance += 1
    return segments


def linear_analytic_segments(reception, rx_phase, lo, hi):
    """The same scan with the analytic path's arithmetic order (the
    phase joins the instance base first), so float grids round alike."""
    if hi <= lo:
        return []
    period = reception.period
    instance = (lo - rx_phase - period) // period
    segments = []
    while True:
        base = rx_phase + instance * period
        if base >= hi:
            break
        for w in reception.windows:
            w_lo = base + w.start
            w_hi = base + w.end
            if w_lo < hi and w_hi > lo:
                segments.append((max(w_lo, lo), min(w_hi, hi)))
        instance += 1
    return segments


@st.composite
def reception_schedules(draw, unit=1):
    """1-8 sorted, disjoint windows on a grid of ``unit``; integer
    grids may abut windows, float grids keep a gap so rounding cannot
    make them overlap."""
    min_gap = 0 if unit == 1 else 1
    n = draw(st.integers(1, 8))
    windows = []
    cursor = draw(st.integers(0, 200))
    for _ in range(n):
        duration = draw(st.integers(1, 400))
        windows.append(ReceptionWindow(cursor * unit, duration * unit))
        cursor += duration + draw(st.integers(min_gap, 300))
    period = cursor + draw(st.integers(0, 300))
    return ReceptionSchedule(windows, period * unit)


clocks = st.one_of(
    st.builds(IdealClock, phase=st.integers(-50_000, 50_000)),
    st.builds(
        DriftingClock,
        phase=st.integers(-50_000, 50_000),
        drift_ppm=st.integers(1, 200).flatmap(
            lambda ppm: st.sampled_from([ppm, -ppm])
        ),
    ),
)
# Query positions: near the origin and far out, where drift rounding
# has accumulated.
positions = st.one_of(
    st.integers(-20_000, 200_000), st.integers(10**8, 10**10)
)


def near_window_edge(data, reception, to_global, to_local, position):
    """``position``, or a point within two ticks of the global image of
    a window edge in the instance around it -- where a rounding slip in
    the bisect key would drop or add a window.  Explicit examples pass
    no ``data`` and keep ``position``."""
    if data is None or not data.draw(st.booleans(), label="snap"):
        return position
    period = reception.period
    window = data.draw(st.sampled_from(reception.windows), label="window")
    edge = data.draw(st.sampled_from([window.start, window.end]), label="edge")
    instance = to_local(position) // period
    return to_global(instance * period + edge) + data.draw(
        st.integers(-2, 2), label="delta"
    )


@settings(max_examples=400, deadline=None)
@given(
    reception=reception_schedules(),
    clock=clocks,
    start_time=st.one_of(st.just(0), st.integers(1, 100_000)),
    position=positions,
    span=st.integers(0, 20_000),
    data=st.data(),
)
@example(
    # At +200 ppm local 7500 maps to global 7502, yet global 7501 maps
    # back to local 7500: a window ending there still covers 7501.
    reception=ReceptionSchedule([ReceptionWindow(7_000, 500)], 10_000),
    clock=DriftingClock(phase=0, drift_ppm=200),
    start_time=0,
    position=7_501,
    span=1,
    data=None,
)
def test_node_lookup_matches_linear_scan(
    reception, clock, start_time, position, span, data
):
    sim = Simulator()
    node = Node(
        "rx",
        NDProtocol(beacons=None, reception=reception),
        sim,
        Channel(),
        clock=clock,
        start_time=start_time,
    )

    def to_global(local):
        return start_time + clock.to_global(local)

    def to_local(global_time):
        return clock.to_local(global_time - start_time)

    lo = near_window_edge(data, reception, to_global, to_local, position)
    for hi in (lo + span, lo + 1):
        assert node._window_segments(lo, hi) == linear_window_segments(
            reception, to_global, to_local, lo, hi
        )


@settings(max_examples=400, deadline=None)
@given(
    reception=st.one_of(
        reception_schedules(),
        reception_schedules(unit=0.1),
        reception_schedules(unit=0.25),
    ),
    rx_phase=st.integers(-50_000, 50_000),
    position=st.one_of(
        positions,
        st.integers(-200_000, 2_000_000).map(lambda tenths: tenths / 10),
    ),
    span=st.integers(0, 20_000),
    data=st.data(),
)
@example(
    # A float packet start where ``lo - base`` rounds onto the window
    # end although ``base + end`` lies past ``lo``.
    reception=ReceptionSchedule(
        [ReceptionWindow(272.1914373230634, 811.7085626769367)], 1401.0
    ),
    rx_phase=414,
    position=96.9,
    span=1,
    data=None,
)
def test_analytic_lookup_matches_linear_scan(
    reception, rx_phase, position, span, data
):
    lo = near_window_edge(
        data,
        reception,
        lambda local: rx_phase + local,
        lambda global_time: global_time - rx_phase,
        position,
    )
    for hi in (lo + span, lo + 1):
        assert _window_segments(reception, rx_phase, lo, hi) == (
            linear_analytic_segments(reception, rx_phase, lo, hi)
        )
