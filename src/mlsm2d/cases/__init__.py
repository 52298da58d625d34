"""Benchmark drivers: the cantilever (`beam`), the drilled cantilever
(`drilled`) and Hertz contact (`hertz`), each run through the shared
pipeline and error norms of `metrics`.
"""
