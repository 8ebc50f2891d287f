"""Pinned DES spot-check replays: the shape ``des_agrees`` runs.

The worst-case engine replays up to 16 offsets of each pair in the
event-driven simulator with ideal clocks, integer schedules, no jitter
and the periodic stop (``ParallelSweep.spot_check_pairs``).  These
literals were recorded before the engine's calendar entries carried
their callback's argument, before packets shared one empty collision
set and before ideal-clock nodes placed their beacons and answered
window lookups by residue arithmetic.  They pin that nothing of it
moved an outcome or the number of events a replay processes.

The grid: one pair of each zoo-cold family (the 11 zoo protocols and
the two syntheses) under all three reception models and turnaround
0 and 7, at 16 offsets each.  Offsets 0, 1 and ``H - 1`` (``H``: the
joint hyperperiod) are always in, and so are up to three offsets at
which a POINT replay leaves a direction undiscovered: those replays
run to the periodic stop.
"""

import pytest

import repro.simulation.runner as runner
from repro.api.spec import build_pair
from repro.simulation import ReceptionModel, simulate_pair

#: ``(pair spec, horizon, offsets)`` per family, named by the protocol
#: (the synthesis kind for the two syntheses).
PAIRS = {
    "Disco": (
        {"kind": "zoo", "protocol": "Disco", "params": {
            "omega": 16, "prime1": 2, "prime2": 5, "slot_length": 1776,
        }},
        53280,
        (
            0, 1, 2985, 5067, 6460, 7629, 8565, 8865, 9515, 9916, 15021, 15588,
            15931, 17134, 17264, 17759,
        ),
    ),
    "UConnect": (
        {"kind": "zoo", "protocol": "UConnect", "params": {
            "omega": 16, "prime": 5, "slot_length": 1456,
        }},
        109200,
        (
            0, 1, 5825, 7347, 9378, 10182, 11870, 12824, 14256, 18488, 20007,
            20596, 21393, 24760, 35256, 36399,
        ),
    ),
    "Searchlight": (
        {"kind": "zoo", "protocol": "Searchlight", "params": {
            "omega": 16, "period_slots": 5, "slot_length": 1320,
        }},
        59400,
        (
            0, 1, 3909, 4686, 5209, 5659, 7035, 8327, 9429, 9872, 11390, 12582,
            17145, 17150, 18352, 19799,
        ),
    ),
    "Diffcodes": (
        {"kind": "zoo", "protocol": "Diffcodes", "params": {
            "omega": 32, "q": 2, "slot_length": 1688,
        }},
        35448,
        (
            0, 1, 1666, 2316, 4808, 5389, 5741, 6744, 6764, 7744, 8180, 9081,
            9149, 10809, 10884, 11815,
        ),
    ),
    "GridQuorum": (
        {"kind": "zoo", "protocol": "GridQuorum", "params": {
            "grid": 3, "omega": 32, "slot_length": 1584,
        }},
        42768,
        (
            0, 1, 27, 581, 1999, 2055, 2444, 4346, 4347, 4683, 6315, 7370,
            7944, 9236, 10876, 14255,
        ),
    ),
    "Nihao": (
        {"kind": "zoo", "protocol": "Nihao", "params": {
            "n": 3, "omega": 16, "slot_length": 1016,
        }},
        9144,
        (
            0, 1, 426, 570, 582, 593, 820, 1015, 1326, 1572, 2104, 2503, 2611,
            2882, 2931, 3047,
        ),
    ),
    "Birthday": (
        {"kind": "zoo", "protocol": "Birthday", "params": {
            "horizon_slots": 48, "omega": 24, "p_rx": 0.2, "p_tx": 0.25,
            "seed": 529, "slot_length": 824,
        }},
        118656,
        (
            0, 1, 847, 7497, 10617, 11246, 13563, 19953, 24995, 26211, 27572,
            28050, 33675, 37225, 37276, 39551,
        ),
    ),
    "PeriodicInterval": (
        {"kind": "zoo", "protocol": "PeriodicInterval", "params": {
            "adv_interval": 160, "bidirectional": False, "omega": 32,
            "scan_interval": 720, "scan_window": 100,
        }},
        4320,
        (
            0, 1, 116, 262, 410, 483, 495, 647, 696, 817, 964, 1062, 1175,
            1197, 1423, 1439,
        ),
    ),
    "OptimalSlotless": (
        {"kind": "zoo", "protocol": "OptimalSlotless", "params": {
            "eta": 0.12209, "omega": 16,
        }},
        13056,
        (
            0, 1, 88, 214, 490, 557, 642, 644, 1462, 1919, 2085, 2219, 2335,
            3256, 3294, 4351,
        ),
    ),
    "OptimalAsymmetric": (
        {"kind": "zoo", "protocol": "OptimalAsymmetric", "params": {
            "eta_e": 0.20211, "eta_f": 0.10344, "omega": 24,
        }},
        13680,
        (
            0, 1, 768, 1038, 1531, 1622, 2417, 2682, 2890, 3082, 3875, 3954,
            4093, 4377, 4402, 4559,
        ),
    ),
    "CorrelatedOneWay": (
        {"kind": "zoo", "protocol": "CorrelatedOneWay", "params": {
            "k": 8, "omega": 16, "window": 60,
        }},
        1800,
        (
            0, 1, 12, 26, 50, 61, 146, 243, 250, 309, 341, 349, 373, 468, 473,
            479,
        ),
    ),
    "symmetric": (
        {"kind": "symmetric", "eta": 0.15286, "omega": 16},
        8736,
        (
            0, 1, 935, 1023, 1032, 1537, 1558, 1780, 1961, 1980, 1984, 2024,
            2140, 2371, 2756, 2911,
        ),
    ),
    "asymmetric": (
        {
            "kind": "asymmetric", "eta_e": 0.18271, "eta_f": 0.11152,
            "omega": 24,
        },
        14256,
        (
            0, 1, 184, 1061, 1498, 1817, 2181, 2196, 2298, 2666, 3372, 4164,
            4189, 4348, 4614, 4751,
        ),
    ),
}

#: Per ``(family, model, turnaround)``: the ``(e_discovered_by_f,
#: f_discovered_by_e)`` outcome at each offset, and the events each
#: replay processed.
REPLAYS = {
    ("Disco", "point", 0): (
        [
            (None, None), (1760, None), (0, 1193), (1760, 1515), (0, 1116),
            (0, 509), (0, 1445), (None, 1745), (0, 619), (0, 1020),
            (1760, 813), (1760, 1380), (1760, 1723), (0, 1134), (0, 1264),
            (None, 1759),
        ],
        [52, 52, 4, 6, 4, 4, 4, 50, 4, 4, 6, 6, 6, 4, 4, 50],
    ),
    ("Disco", "point", 7): (
        [
            (None, None), (None, None), (0, 1193), (1760, 1515), (0, 1116),
            (0, 509), (0, 1445), (None, 1745), (0, 619), (0, 1020),
            (1760, 813), (1760, 1380), (1760, 1723), (0, 1134), (0, 1264),
            (None, None),
        ],
        [78, 78, 6, 9, 6, 7, 7, 75, 7, 7, 9, 9, 9, 6, 6, 75],
    ),
    ("Disco", "any-overlap", 0): (
        [
            (None, None), (1760, 1), (0, 1193), (1760, 1515), (0, 1116),
            (0, 509), (0, 1445), (0, 1745), (0, 619), (0, 1020), (1760, 813),
            (1760, 1380), (1760, 1723), (0, 1134), (0, 1264), (0, 1759),
        ],
        [52, 7, 4, 6, 4, 4, 4, 5, 4, 4, 6, 6, 6, 4, 4, 5],
    ),
    ("Disco", "any-overlap", 7): (
        [
            (None, None), (None, None), (0, 1193), (1760, 1515), (0, 1116),
            (0, 509), (0, 1445), (0, 1745), (0, 619), (0, 1020), (1760, 813),
            (1760, 1380), (1760, 1723), (0, 1134), (0, 1264), (0, None),
        ],
        [78, 78, 6, 9, 6, 7, 7, 8, 7, 7, 9, 9, 9, 6, 6, 75],
    ),
    ("Disco", "containment", 0): (
        [
            (None, None), (None, None), (0, 1193), (1760, 1515), (0, 1116),
            (0, 509), (0, 1445), (None, None), (0, 619), (0, 1020),
            (1760, 813), (1760, 1380), (1760, 1723), (0, 1134), (0, 1264),
            (None, None),
        ],
        [52, 52, 4, 6, 4, 4, 4, 50, 4, 4, 6, 6, 6, 4, 4, 50],
    ),
    ("Disco", "containment", 7): (
        [
            (None, None), (None, None), (0, 1193), (1760, 1515), (0, 1116),
            (0, 509), (0, 1445), (None, None), (0, 619), (0, 1020),
            (1760, 813), (1760, 1380), (1760, 1723), (0, 1134), (0, 1264),
            (None, None),
        ],
        [78, 78, 6, 9, 6, 7, 7, 75, 7, 7, 9, 9, 9, 6, 6, 75],
    ),
    ("UConnect", "point", 0): (
        [
            (None, None), (1456, None), (0, None), (1456, 67), (2912, 2098),
            (None, 2902), (14560, 4590), (14560, 5544), (0, 15712),
            (4368, 3928), (21840, 5447), (0, 22052), (0, 22849), (4368, None),
            (0, 312), (None, 1455),
        ],
        [36, 36, 34, 6, 8, 34, 18, 18, 18, 10, 22, 22, 22, 34, 4, 34],
    ),
    ("UConnect", "point", 7): (
        [
            (None, None), (None, None), (0, None), (1456, 67), (2912, 2098),
            (None, 2902), (14560, 4590), (14560, 5544), (0, 15712),
            (4368, 3928), (21840, 5447), (0, 22052), (0, 22849), (4368, None),
            (0, 312), (None, None),
        ],
        [54, 54, 51, 9, 12, 51, 27, 27, 27, 15, 33, 33, 33, 51, 6, 51],
    ),
    ("UConnect", "any-overlap", 0): (
        [
            (None, None), (1456, 1), (0, 7281), (1456, 67), (2912, 2098),
            (2912, 2902), (14560, 4590), (14560, 5544), (0, 15712),
            (4368, 3928), (21840, 5447), (0, 22052), (0, 22849), (4368, 2920),
            (0, 312), (0, 1455),
        ],
        [36, 7, 14, 6, 8, 8, 18, 18, 18, 10, 22, 22, 22, 10, 4, 5],
    ),
    ("UConnect", "any-overlap", 7): (
        [
            (None, None), (None, None), (0, None), (1456, 67), (2912, 2098),
            (2912, 2902), (14560, 4590), (14560, 5544), (0, 15712),
            (4368, 3928), (21840, 5447), (0, 22052), (0, 22849), (4368, 2920),
            (0, 312), (0, None),
        ],
        [54, 54, 51, 9, 12, 12, 27, 27, 27, 15, 33, 33, 33, 15, 6, 51],
    ),
    ("UConnect", "containment", 0): (
        [
            (None, None), (None, None), (None, None), (1456, 67), (2912, 2098),
            (None, None), (14560, 4590), (14560, 5544), (0, 15712),
            (4368, 3928), (21840, 5447), (0, 22052), (0, 22849), (None, None),
            (0, 312), (None, None),
        ],
        [36, 36, 34, 6, 8, 34, 18, 18, 18, 10, 22, 22, 22, 34, 4, 34],
    ),
    ("UConnect", "containment", 7): (
        [
            (None, None), (None, None), (None, None), (1456, 67), (2912, 2098),
            (None, None), (14560, 4590), (14560, 5544), (0, 15712),
            (4368, 3928), (21840, 5447), (0, 22052), (0, 22849), (None, None),
            (0, 312), (None, None),
        ],
        [54, 54, 51, 9, 12, 51, 27, 27, 27, 15, 33, 33, 33, 51, 6, 51],
    ),
    ("Searchlight", "point", 0): (
        [
            (None, None), (1304, None), (1304, 1269), (2624, 2046),
            (2624, 2569), (0, 363), (1304, 435), (2624, 1727), (0, 173),
            (0, 616), (1304, 830), (0, 686), (None, 7889), (None, 7894),
            (0, 1176), (None, 1303),
        ],
        [52, 52, 6, 10, 10, 4, 6, 10, 4, 4, 6, 4, 50, 50, 4, 50],
    ),
    ("Searchlight", "point", 7): (
        [
            (None, None), (None, None), (1304, 1269), (2624, 2046),
            (2624, 2569), (0, 363), (1304, 435), (2624, 1727), (0, 173),
            (0, 616), (1304, 830), (0, 686), (None, 7889), (None, 7894),
            (0, 1176), (None, None),
        ],
        [78, 78, 10, 15, 15, 6, 10, 15, 6, 6, 10, 6, 75, 75, 6, 75],
    ),
    ("Searchlight", "any-overlap", 0): (
        [
            (None, None), (1304, 1), (1304, 1269), (2624, 2046), (2624, 2569),
            (0, 363), (1304, 435), (2624, 1727), (0, 173), (0, 616),
            (1304, 830), (0, 686), (6600, 7889), (6600, 7894), (0, 1176),
            (0, 1303),
        ],
        [52, 7, 6, 10, 10, 4, 6, 10, 4, 4, 6, 4, 19, 19, 4, 5],
    ),
    ("Searchlight", "any-overlap", 7): (
        [
            (None, None), (None, None), (1304, 1269), (2624, 2046),
            (2624, 2569), (0, 363), (1304, 435), (2624, 1727), (0, 173),
            (0, 616), (1304, 830), (0, 686), (6600, 7889), (6600, 7894),
            (0, 1176), (0, None),
        ],
        [78, 78, 10, 15, 15, 6, 10, 15, 6, 6, 10, 6, 28, 28, 6, 75],
    ),
    ("Searchlight", "containment", 0): (
        [
            (None, None), (None, None), (1304, 1269), (2624, 2046),
            (2624, 2569), (0, 363), (1304, 435), (2624, 1727), (0, 173),
            (0, 616), (1304, 830), (0, 686), (None, None), (None, None),
            (0, 1176), (None, None),
        ],
        [52, 52, 6, 10, 10, 4, 6, 10, 4, 4, 6, 4, 50, 50, 4, 50],
    ),
    ("Searchlight", "containment", 7): (
        [
            (None, None), (None, None), (1304, 1269), (2624, 2046),
            (2624, 2569), (0, 363), (1304, 435), (2624, 1727), (0, 173),
            (0, 616), (1304, 830), (0, 686), (None, None), (None, None),
            (0, 1176), (None, None),
        ],
        [78, 78, 10, 15, 15, 6, 10, 15, 6, 6, 10, 6, 75, 75, 6, 75],
    ),
    ("Diffcodes", "point", 0): (
        [
            (None, None), (1688, None), (None, 1666), (5064, 2316),
            (5064, 6496), (0, 5389), (0, 5741), (None, 6744), (1688, None),
            (1688, 992), (1688, 1428), (0, 2329), (0, 2397), (0, 681),
            (0, 756), (None, 1687),
        ],
        [16, 16, 14, 10, 10, 8, 8, 14, 16, 6, 6, 6, 6, 4, 4, 14],
    ),
    ("Diffcodes", "point", 7): (
        [
            (None, None), (None, None), (None, 1666), (5064, 2316),
            (5064, 6496), (0, 5389), (0, 5741), (None, 6744), (1688, None),
            (1688, 992), (1688, 1428), (0, 2329), (0, 2397), (0, 681),
            (0, 756), (None, None),
        ],
        [24, 24, 21, 15, 15, 12, 12, 21, 24, 9, 9, 9, 9, 6, 6, 21],
    ),
    ("Diffcodes", "any-overlap", 0): (
        [
            (None, None), (1688, 1), (1688, 1666), (5064, 2316), (5064, 6496),
            (0, 5389), (0, 5741), (0, 6744), (1688, 12), (1688, 992),
            (1688, 1428), (0, 2329), (0, 2397), (0, 681), (0, 756), (0, 1687),
        ],
        [16, 7, 6, 10, 10, 8, 8, 8, 6, 6, 6, 6, 6, 4, 4, 5],
    ),
    ("Diffcodes", "any-overlap", 7): (
        [
            (None, None), (None, None), (1688, 1666), (5064, 2316),
            (5064, 6496), (0, 5389), (0, 5741), (0, 6744), (1688, 12),
            (1688, 992), (1688, 1428), (0, 2329), (0, 2397), (0, 681),
            (0, 756), (0, None),
        ],
        [24, 24, 9, 15, 15, 12, 12, 12, 9, 9, 9, 9, 9, 6, 6, 21],
    ),
    ("Diffcodes", "containment", 0): (
        [
            (None, None), (None, None), (None, None), (5064, 2316),
            (5064, 6496), (0, 5389), (0, 5741), (None, None), (None, None),
            (1688, 992), (1688, 1428), (0, 2329), (0, 2397), (0, 681),
            (0, 756), (None, None),
        ],
        [16, 16, 14, 10, 10, 8, 8, 14, 16, 6, 6, 6, 6, 4, 4, 14],
    ),
    ("Diffcodes", "containment", 7): (
        [
            (None, None), (None, None), (None, None), (5064, 2316),
            (5064, 6496), (0, 5389), (0, 5741), (None, None), (None, None),
            (1688, 992), (1688, 1428), (0, 2329), (0, 2397), (0, 681),
            (0, 756), (None, None),
        ],
        [24, 24, 21, 15, 15, 12, 12, 21, 24, 9, 9, 9, 9, 6, 6, 21],
    ),
    ("GridQuorum", "point", 0): (
        [
            (None, None), (1584, None), (1584, None), (1584, 581),
            (3168, 1999), (3168, 2055), (3168, 2444), (0, 4346), (0, 4347),
            (0, 4683), (None, 1563), (3168, 2618), (0, None), (0, 4484),
            (0, 1372), (None, 1583),
        ],
        [24, 24, 24, 6, 8, 8, 8, 8, 8, 8, 22, 8, 22, 8, 4, 22],
    ),
    ("GridQuorum", "point", 7): (
        [
            (None, None), (None, None), (1584, None), (1584, 581),
            (3168, 1999), (3168, 2055), (3168, 2444), (0, 4346), (0, 4347),
            (0, 4683), (None, 1563), (3168, 2618), (0, None), (0, 4484),
            (0, 1372), (None, None),
        ],
        [36, 36, 36, 9, 12, 12, 12, 12, 12, 12, 33, 12, 33, 12, 6, 33],
    ),
    ("GridQuorum", "any-overlap", 0): (
        [
            (None, None), (1584, 1), (1584, 27), (1584, 581), (3168, 1999),
            (3168, 2055), (3168, 2444), (0, 4346), (0, 4347), (0, 4683),
            (1584, 1563), (3168, 2618), (0, 3192), (0, 4484), (0, 1372),
            (0, 1583),
        ],
        [24, 7, 7, 6, 8, 8, 8, 8, 8, 8, 6, 8, 8, 8, 4, 5],
    ),
    ("GridQuorum", "any-overlap", 7): (
        [
            (None, None), (None, None), (1584, 27), (1584, 581), (3168, 1999),
            (3168, 2055), (3168, 2444), (0, 4346), (0, 4347), (0, 4683),
            (1584, 1563), (3168, 2618), (0, 3192), (0, 4484), (0, 1372),
            (0, None),
        ],
        [36, 36, 10, 9, 12, 12, 12, 12, 12, 12, 9, 12, 12, 12, 6, 33],
    ),
    ("GridQuorum", "containment", 0): (
        [
            (None, None), (None, None), (None, None), (1584, 581),
            (3168, 1999), (3168, 2055), (3168, 2444), (0, 4346), (0, 4347),
            (0, 4683), (None, None), (3168, 2618), (None, None), (0, 4484),
            (0, 1372), (None, None),
        ],
        [24, 24, 24, 6, 8, 8, 8, 8, 8, 8, 22, 8, 22, 8, 4, 22],
    ),
    ("GridQuorum", "containment", 7): (
        [
            (None, None), (None, None), (None, None), (1584, 581),
            (3168, 1999), (3168, 2055), (3168, 2444), (0, 4346), (0, 4347),
            (0, 4683), (None, None), (3168, 2618), (None, None), (0, 4484),
            (0, 1372), (None, None),
        ],
        [36, 36, 36, 9, 12, 12, 12, 12, 12, 12, 33, 12, 33, 12, 6, 33],
    ),
    ("Nihao", "point", 0): (
        [
            (None, None), (1000, None), (1000, None), (1000, None),
            (1000, None), (1000, None), (1000, None), (1016, None),
            (2032, 310), (2032, 556), (None, 56), (None, 455), (None, 563),
            (None, 834), (None, 883), (None, 999),
        ],
        [12, 12, 12, 12, 12, 12, 12, 12, 8, 8, 12, 12, 12, 12, 12, 12],
    ),
    ("Nihao", "point", 7): (
        [
            (None, None), (None, None), (1000, None), (1000, None),
            (1000, None), (1000, None), (1000, None), (1016, None),
            (2032, 310), (2032, 556), (None, 56), (None, 455), (None, 563),
            (None, 834), (None, 883), (None, None),
        ],
        [18, 18, 18, 18, 18, 18, 18, 18, 12, 12, 18, 18, 18, 18, 18, 18],
    ),
    ("Nihao", "any-overlap", 0): (
        [
            (None, None), (1000, None), (1000, None), (1000, None),
            (1000, None), (1000, None), (1000, None), (1000, 3047),
            (2032, 310), (2032, 556), (None, 56), (None, 455), (None, 563),
            (None, 834), (None, 883), (None, 999),
        ],
        [12, 12, 12, 12, 12, 12, 12, 12, 8, 8, 12, 12, 12, 12, 12, 12],
    ),
    ("Nihao", "any-overlap", 7): (
        [
            (None, None), (None, None), (1000, None), (1000, None),
            (1000, None), (1000, None), (1000, None), (1000, 3047),
            (2032, 310), (2032, 556), (None, 56), (None, 455), (None, 563),
            (None, 834), (None, 883), (None, None),
        ],
        [18, 18, 18, 18, 18, 18, 18, 18, 12, 12, 18, 18, 18, 18, 18, 18],
    ),
    ("Nihao", "containment", 0): (
        [
            (None, None), (None, None), (1000, None), (1000, None),
            (1000, None), (1000, None), (1000, None), (1016, None),
            (2032, 310), (2032, 556), (None, 56), (None, 455), (None, 563),
            (None, 834), (None, 883), (None, None),
        ],
        [12, 12, 12, 12, 12, 12, 12, 12, 8, 8, 12, 12, 12, 12, 12, 12],
    ),
    ("Nihao", "containment", 7): (
        [
            (None, None), (None, None), (1000, None), (1000, None),
            (1000, None), (1000, None), (1000, None), (1016, None),
            (2032, 310), (2032, 556), (None, 56), (None, 455), (None, 563),
            (None, 834), (None, 883), (None, None),
        ],
        [18, 18, 18, 18, 18, 18, 18, 18, 12, 12, 18, 18, 18, 18, 18, 18],
    ),
    ("Birthday", "point", 0): (
        [
            (13184, 12360), (28840, 12361), (None, 31335), (7416, 5025),
            (7416, 5673), (10712, 2182), (10712, 31691), (7416, 177),
            (22248, 275), (13184, 36923), (28840, 380), (15656, 31346),
            (7416, 2363), (None, 5089), (None, 5140), (13184, 20599),
        ],
        [18, 36, 52, 10, 10, 14, 42, 6, 28, 50, 36, 38, 12, 52, 52, 30],
    ),
    ("Birthday", "point", 7): (
        [
            (13184, 12360), (28840, 12361), (None, 31335), (7416, 5025),
            (7416, 5673), (10712, 2182), (10712, 31691), (7416, 177),
            (22248, 275), (13184, 36923), (28840, 380), (15656, 31346),
            (7416, 2363), (None, 5089), (None, 5140), (13184, 20599),
        ],
        [27, 54, 78, 15, 15, 21, 63, 9, 42, 75, 54, 57, 18, 78, 78, 45],
    ),
    ("Birthday", "any-overlap", 0): (
        [
            (13184, 12360), (13184, 12361), (28840, 31335), (7416, 5025),
            (7416, 5673), (10712, 2182), (10712, 31691), (7416, 177),
            (22248, 275), (13184, 36923), (28840, 380), (15656, 31346),
            (7416, 2363), (None, 5089), (None, 5140), (13184, 12359),
        ],
        [18, 18, 38, 10, 10, 14, 42, 6, 28, 50, 36, 38, 12, 52, 52, 18],
    ),
    ("Birthday", "any-overlap", 7): (
        [
            (13184, 12360), (13184, 12361), (28840, 31335), (7416, 5025),
            (7416, 5673), (10712, 2182), (10712, 31691), (7416, 177),
            (22248, 275), (13184, 36923), (28840, 380), (15656, 31346),
            (7416, 2363), (None, 5089), (None, 5140), (13184, 12359),
        ],
        [27, 27, 57, 15, 15, 21, 63, 9, 42, 75, 54, 57, 18, 78, 78, 27],
    ),
    ("Birthday", "containment", 0): (
        [
            (13184, 12360), (None, 12361), (None, 31335), (7416, 5025),
            (7416, 5673), (10712, 2182), (10712, 31691), (7416, 177),
            (22248, 275), (13184, 36923), (28840, 380), (15656, 31346),
            (7416, 2363), (None, 5089), (None, 5140), (13184, None),
        ],
        [18, 52, 52, 10, 10, 14, 42, 6, 28, 50, 36, 38, 12, 52, 52, 52],
    ),
    ("Birthday", "containment", 7): (
        [
            (13184, 12360), (None, 12361), (None, 31335), (7416, 5025),
            (7416, 5673), (10712, 2182), (10712, 31691), (7416, 177),
            (22248, 275), (13184, 36923), (28840, 380), (15656, 31346),
            (7416, 2363), (None, 5089), (None, 5140), (13184, None),
        ],
        [27, 78, 78, 15, 15, 21, 63, 9, 42, 75, 54, 57, 18, 78, 78, 78],
    ),
    ("PeriodicInterval", "point", 0): (
        [
            (0, None), (800, None), (160, None), (320, None), (480, None),
            (1280, None), (1280, None), (0, None), (0, None), (160, None),
            (320, None), (1120, None), (480, None), (480, None), (0, None),
            (0, None),
        ],
        [2, 12, 4, 6, 8, 18, 18, 2, 2, 4, 6, 16, 8, 8, 2, 2],
    ),
    ("PeriodicInterval", "point", 7): (
        [
            (0, None), (800, None), (160, None), (320, None), (480, None),
            (1280, None), (1280, None), (0, None), (0, None), (160, None),
            (320, None), (1120, None), (480, None), (480, None), (0, None),
            (0, None),
        ],
        [3, 18, 6, 9, 12, 27, 27, 3, 3, 6, 9, 24, 12, 12, 3, 3],
    ),
    ("PeriodicInterval", "any-overlap", 0): (
        [
            (0, None), (0, None), (160, None), (320, None), (480, None),
            (480, None), (480, None), (0, None), (0, None), (160, None),
            (320, None), (320, None), (480, None), (480, None), (0, None),
            (0, None),
        ],
        [2, 2, 4, 6, 8, 8, 8, 2, 2, 4, 6, 6, 8, 8, 2, 2],
    ),
    ("PeriodicInterval", "any-overlap", 7): (
        [
            (0, None), (0, None), (160, None), (320, None), (480, None),
            (480, None), (480, None), (0, None), (0, None), (160, None),
            (320, None), (320, None), (480, None), (480, None), (0, None),
            (0, None),
        ],
        [3, 3, 6, 9, 12, 12, 12, 3, 3, 6, 9, 9, 12, 12, 3, 3],
    ),
    ("PeriodicInterval", "containment", 0): (
        [
            (0, None), (None, None), (160, None), (320, None), (None, None),
            (None, None), (1280, None), (None, None), (0, None), (160, None),
            (None, None), (1120, None), (480, None), (480, None), (0, None),
            (0, None),
        ],
        [2, 20, 4, 6, 20, 20, 18, 20, 2, 4, 20, 16, 8, 8, 2, 2],
    ),
    ("PeriodicInterval", "containment", 7): (
        [
            (0, None), (None, None), (160, None), (320, None), (None, None),
            (None, None), (1280, None), (None, None), (0, None), (160, None),
            (None, None), (1120, None), (480, None), (480, None), (0, None),
            (0, None),
        ],
        [3, 30, 6, 9, 30, 30, 27, 30, 3, 6, 30, 24, 12, 12, 3, 3],
    ),
    ("OptimalSlotless", "point", 0): (
        [
            (None, None), (272, None), (1632, 3080), (3808, 1030),
            (4080, 1034), (816, None), (2448, 2818), (2448, 2820),
            (3264, 2822), (2176, None), (816, 1541), (2992, 3851), (544, 2063),
            (None, 264), (3808, 4110), (0, 271),
        ],
        [68, 68, 48, 58, 62, 68, 44, 44, 50, 68, 24, 60, 32, 66, 64, 5],
    ),
    ("OptimalSlotless", "point", 7): (
        [
            (None, None), (None, None), (1632, 3080), (3808, 1030),
            (4080, 1034), (816, None), (2448, 2818), (2448, 2820),
            (3264, 2822), (2176, None), (816, 1541), (2992, 3851), (544, 2063),
            (None, 264), (3808, 4110), (0, None),
        ],
        [102, 102, 72, 87, 93, 102, 66, 66, 75, 102, 36, 90, 48, 99, 96, 99],
    ),
    ("OptimalSlotless", "any-overlap", 0): (
        [
            (None, None), (272, 4081), (1360, 2808), (3536, 758), (3808, 762),
            (816, 4093), (2176, 2546), (2176, 2548), (2992, 2550),
            (2176, 4095), (544, 1269), (2720, 3579), (272, 1791), (2992, 264),
            (3536, 3838), (0, 271),
        ],
        [68, 64, 44, 54, 58, 64, 40, 40, 46, 64, 20, 56, 28, 46, 60, 5],
    ),
    ("OptimalSlotless", "any-overlap", 7): (
        [
            (None, None), (None, None), (1360, 2808), (3536, 758), (3808, 762),
            (816, 4093), (2176, 2546), (2176, 2548), (2992, 2550),
            (2176, 4095), (544, 1269), (2720, 3579), (272, 1791), (2992, 264),
            (3536, 3838), (0, None),
        ],
        [102, 102, 66, 81, 87, 96, 60, 60, 69, 96, 30, 84, 42, 69, 90, 99],
    ),
    ("OptimalSlotless", "containment", 0): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
        ],
        [68, 68, 66, 66, 66, 68, 66, 66, 66, 68, 66, 66, 66, 66, 67, 66],
    ),
    ("OptimalSlotless", "containment", 7): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
        ],
        [102, 102, 99, 99, 99, 102, 99, 99, 99, 102, 99, 100, 99, 99, 101, 99],
    ),
    ("OptimalAsymmetric", "point", 0): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None), (0, None),
            (None, None), (None, None), (0, None),
        ],
        [62, 62, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60],
    ),
    ("OptimalAsymmetric", "point", 7): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None), (0, None),
            (None, None), (None, None), (0, None),
        ],
        [93, 93, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90],
    ),
    ("OptimalAsymmetric", "any-overlap", 0): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None), (0, None),
            (None, None), (None, None), (0, None),
        ],
        [62, 62, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60],
    ),
    ("OptimalAsymmetric", "any-overlap", 7): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None), (0, None),
            (None, None), (None, None), (0, None),
        ],
        [93, 93, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90],
    ),
    ("OptimalAsymmetric", "containment", 0): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
        ],
        [62, 62, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60],
    ),
    ("OptimalAsymmetric", "containment", 7): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
        ],
        [93, 93, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90],
    ),
    ("CorrelatedOneWay", "point", 0): (
        [
            (None, None), (None, None), (None, 4), (None, 18), (None, 42),
            (112, 53), (None, 18), (None, None), (None, 2), (352, None),
            (352, None), (None, None), (None, 5), (None, None), (None, None),
            (None, None),
        ],
        [16, 16, 18, 17, 16, 4, 17, 16, 18, 16, 16, 16, 18, 16, 16, 16],
    ),
    ("CorrelatedOneWay", "point", 7): (
        [
            (None, None), (None, None), (None, 4), (None, 18), (None, 42),
            (112, 53), (None, 18), (None, None), (None, 2), (352, None),
            (None, None), (None, None), (None, 5), (None, None), (None, None),
            (None, None),
        ],
        [24, 24, 27, 27, 25, 6, 27, 24, 27, 24, 24, 24, 27, 24, 24, 24],
    ),
    ("CorrelatedOneWay", "any-overlap", 0): (
        [
            (None, None), (None, 473), (None, 4), (None, 18), (None, 42),
            (112, 53), (None, 18), (None, 475), (None, 2), (352, None),
            (352, None), (352, None), (None, 5), (472, None), (472, None),
            (472, None),
        ],
        [16, 16, 18, 17, 16, 4, 17, 16, 18, 16, 16, 16, 18, 16, 16, 16],
    ),
    ("CorrelatedOneWay", "any-overlap", 7): (
        [
            (None, None), (None, None), (None, 4), (None, 18), (None, 42),
            (112, 53), (None, 18), (None, None), (None, 2), (352, None),
            (352, None), (352, None), (None, 5), (472, None), (None, None),
            (None, None),
        ],
        [24, 24, 27, 27, 25, 6, 27, 24, 27, 24, 24, 24, 27, 24, 24, 24],
    ),
    ("CorrelatedOneWay", "containment", 0): (
        [
            (None, None), (None, None), (None, 4), (None, 18), (None, 42),
            (None, None), (None, 18), (None, None), (None, 2), (352, None),
            (352, None), (None, None), (None, 5), (None, None), (None, None),
            (None, None),
        ],
        [16, 16, 18, 17, 16, 16, 17, 16, 18, 16, 16, 16, 18, 16, 16, 16],
    ),
    ("CorrelatedOneWay", "containment", 7): (
        [
            (None, None), (None, None), (None, 4), (None, 18), (None, 42),
            (None, None), (None, 18), (None, None), (None, 2), (352, None),
            (None, None), (None, None), (None, 5), (None, None), (None, None),
            (None, None),
        ],
        [24, 24, 27, 27, 25, 24, 27, 24, 27, 24, 24, 24, 27, 24, 24, 24],
    ),
    ("symmetric", "point", 0): (
        [
            (None, None), (224, None), (1568, 2503), (2688, 1471), (0, 1256),
            (1344, 417), (None, 214), (None, 212), (1344, 841), (1568, 636),
            (1568, 416), (2240, None), (896, 1468), (1344, 1251), (896, 2084),
            (0, 223),
        ],
        [56, 56, 48, 50, 24, 26, 54, 54, 26, 30, 30, 56, 28, 26, 40, 5],
    ),
    ("symmetric", "point", 7): (
        [
            (None, None), (None, None), (1568, 2503), (2688, 1471), (0, 1256),
            (1344, 417), (None, 214), (None, 212), (1344, 841), (1568, 636),
            (1568, 416), (2240, None), (896, 1468), (1344, 1251), (896, 2084),
            (0, None),
        ],
        [84, 84, 72, 75, 36, 39, 81, 81, 39, 45, 45, 84, 42, 39, 60, 81],
    ),
    ("symmetric", "any-overlap", 0): (
        [
            (None, None), (224, 2689), (1344, 2279), (2464, 1247), (0, 1032),
            (1120, 193), (1344, 214), (1568, 212), (1120, 617), (1344, 412),
            (1568, 416), (2240, 2696), (672, 1244), (1120, 1027), (672, 1860),
            (0, 223),
        ],
        [56, 52, 44, 46, 20, 22, 26, 30, 22, 26, 30, 52, 24, 22, 36, 5],
    ),
    ("symmetric", "any-overlap", 7): (
        [
            (None, None), (None, None), (1344, 2279), (2464, 1247), (0, 1032),
            (1120, 193), (1344, 214), (1568, 212), (1120, 617), (1344, 412),
            (1568, 416), (2240, 2696), (672, 1244), (1120, 1027), (672, 1860),
            (0, None),
        ],
        [84, 84, 66, 69, 30, 33, 39, 45, 33, 39, 45, 78, 36, 33, 54, 81],
    ),
    ("symmetric", "containment", 0): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (1568, 416), (None, None),
            (None, None), (None, None), (None, None), (None, None),
        ],
        [56, 56, 54, 54, 54, 54, 54, 54, 54, 54, 30, 56, 54, 54, 54, 54],
    ),
    ("symmetric", "containment", 7): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (1568, 416), (None, None),
            (None, None), (None, None), (None, None), (None, None),
        ],
        [84, 84, 82, 81, 81, 81, 81, 81, 81, 81, 45, 84, 81, 81, 81, 81],
    ),
    ("asymmetric", "point", 0): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (0, None),
        ],
        [62, 62, 60, 60, 60, 60, 62, 61, 60, 60, 60, 60, 60, 61, 60, 60],
    ),
    ("asymmetric", "point", 7): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (0, None),
        ],
        [93, 93, 90, 90, 90, 90, 93, 92, 90, 90, 90, 90, 90, 93, 90, 90],
    ),
    ("asymmetric", "any-overlap", 0): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (0, None),
        ],
        [62, 62, 60, 60, 60, 60, 62, 61, 60, 60, 60, 60, 60, 61, 60, 60],
    ),
    ("asymmetric", "any-overlap", 7): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (0, None),
        ],
        [93, 93, 90, 90, 90, 90, 93, 92, 90, 90, 90, 90, 90, 93, 90, 90],
    ),
    ("asymmetric", "containment", 0): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
        ],
        [62, 62, 60, 60, 60, 60, 62, 61, 60, 60, 60, 60, 60, 61, 60, 60],
    ),
    ("asymmetric", "containment", 7): (
        [
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
            (None, None), (None, None), (None, None), (None, None),
        ],
        [93, 93, 90, 90, 90, 90, 93, 92, 90, 90, 90, 90, 90, 93, 90, 90],
    ),
}


@pytest.fixture
def simulators(monkeypatch):
    """Every :class:`~repro.simulation.engine.Simulator` a pair replay
    builds, in order."""
    built = []

    class Recording(runner.Simulator):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(runner, "Simulator", Recording)
    return built


@pytest.mark.parametrize("turnaround", [0, 7])
@pytest.mark.parametrize(
    "model", list(ReceptionModel), ids=[m.value for m in ReceptionModel]
)
@pytest.mark.parametrize("family", list(PAIRS))
def test_spot_check_replays_are_pinned(simulators, family, model, turnaround):
    spec, horizon, offsets = PAIRS[family]
    protocol_e, protocol_f, _ = build_pair(spec)
    outcomes, events = [], []
    for offset in offsets:
        simulators.clear()
        outcome = simulate_pair(
            protocol_e, protocol_f, offset, horizon, model, turnaround
        )
        outcomes.append((outcome.e_discovered_by_f, outcome.f_discovered_by_e))
        events.append(simulators[0].events_processed if simulators else 0)
    assert (outcomes, events) == REPLAYS[family, model.value, turnaround]
