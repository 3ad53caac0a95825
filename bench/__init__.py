"""Benchmark for mginv: seeded workloads, an output checker and a tracer.

Run ``python3 bench/run.py --workload compute_exact --seed 1 --seconds 30
--trace 0``; ``--workload all`` runs every workload, each in a fresh
process. ``python3 -m pytest bench/tests`` runs the benchmark's self-tests.
"""
