"""Layered transfer benchmark for fieldxfer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root. ``inputs`` generates every input from the seed,
``workloads`` defines the three closed-loop workloads and their correctness
checks, ``spans`` records per-layer spans from outside the library, and
``calibrate`` ties the numbers to the ROADMAP baseline.
"""
