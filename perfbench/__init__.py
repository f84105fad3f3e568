"""Closed-loop benchmark of the quatspec CLI with a numpy-only output oracle.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  See run.py.
"""
