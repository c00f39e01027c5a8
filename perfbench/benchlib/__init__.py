"""Library behind ``perfbench/run.py``: statistics, tracing, workloads."""
