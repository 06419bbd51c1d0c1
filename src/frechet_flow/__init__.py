"""Spectral evolution under constant-coefficient symbols on a seminormed
frequency grid: exponential flows with certified truncation, per-ball
operator calculus, invariance decision procedures, and Taylor translation
of very smooth functions."""

__version__ = "0.1.0"
