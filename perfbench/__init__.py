"""Benchmark of the gmcoreset command line: workloads, output checks and tracing.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in one process; ``python3 perfbench/run_all.py`` runs
every workload, each in a fresh process, and prints every metric.
"""
