"""The repository benchmark: ``python3 perfbench/run.py --workload W ...``.

``BENCHMARK.json`` at the repository root names the workloads and the
metrics; ``perfbench/run.py`` is the one command that runs them.
"""
