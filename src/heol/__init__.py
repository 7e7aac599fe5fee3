"""Homeostat-based model-free control on flat systems.

The package derives per-channel ultra-local models ("homeostats")
``d^n(Dy)/dt^n = F + alpha Du`` by tangent linearisation of implicit flat
input/output relations, estimates the lumped disturbance F with windowed
integral kernels that need no output derivatives, closes each channel with
an intelligent iP/iPD law, and ships a deterministic simulation harness with
a two-input flat benchmark plant.
"""

__version__ = "0.1.0"
