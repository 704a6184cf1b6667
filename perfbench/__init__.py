"""Benchmark of the ptchain package; the entry point is ``perfbench/run.py``."""
