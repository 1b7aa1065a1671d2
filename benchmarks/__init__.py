"""Benchmarks: the golden renderings of every registered experiment and
the simulator's performance checks (a package, so its
``test_experiments.py`` and the tier-1 one can share a pytest session)."""
