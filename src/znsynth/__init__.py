"""Spectral synthesis inequalities and exact signal recovery on Z_N^d.

A workbench for band-limited functions on the finite group Z_N^d: unitary
Fourier analysis, sup-norm bounds driven by the size and structure of the
Fourier support, construction of the extremal families that make those
bounds sharp (random sets with small peak coefficient, coordinate
subgroups, near-Lambda(p) sets), and exact recovery of value-separated
real signals whose spectra are transmitted with some frequencies missing.

Callers import from the modules; the package root holds only __version__.
"""

__version__ = "0.1.0"
