"""The repo benchmark's harness: generators, load drivers, spans, statistics.

Everything here drives ``repro`` from outside, through its public surface;
nothing under ``src/`` knows the benchmark exists.
"""
