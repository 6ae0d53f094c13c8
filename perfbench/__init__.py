"""perfbench — the fixed benchmark later perf claims are measured with.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
