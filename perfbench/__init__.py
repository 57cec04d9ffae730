"""Benchmark of the emanakey package; run it with `python3 perfbench/run.py`."""
