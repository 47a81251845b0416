"""Reference implementations the shipped fast paths are checked against.

Each oracle answers the same question as a production code path the slow,
obviously-correct way.  Property tests and before/after benchmarks import
them from here; nothing under ``src/`` depends on them.
"""
