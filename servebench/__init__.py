"""Serving benchmark of the repro-serve process (see run.py)."""
