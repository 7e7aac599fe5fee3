"""Recover a constant disturbance from a sliding window of samples.

The estimators integrate the measured deviation against fixed polynomial
kernels. No derivatives of the measurement are ever taken, and the kernels
are chosen so that initial conditions drop out: adding a constant (first
order) or a whole affine ramp (second order) to the deviation history leaves
the estimate untouched.
"""

import numpy as np

from heol.estimators import estimate_f_nu1, estimate_f_nu2
from heol.signals import Window

T = 0.5
sigma = np.linspace(0.0, T, 101)

F_TRUE = 2.0
ADU = -3.0  # constant alpha * du seen by the deviation dynamics
adu_window = Window(T, sigma, np.full_like(sigma, ADU))

# first-order deviation: d(dy)/dt = F + adu, arbitrary start value
dy1 = 0.7 + (F_TRUE + ADU) * sigma
est1 = estimate_f_nu1(Window(T, sigma, dy1), adu_window)
print(f"first order:  F = {F_TRUE}, estimate = {est1.value:.12f}")

# second-order deviation: d2(dy)/dt2 = F + adu, arbitrary value and slope
dy2 = 0.7 - 1.3 * sigma + 0.5 * (F_TRUE + ADU) * sigma**2
est2 = estimate_f_nu2(Window(T, sigma, dy2), adu_window)
print(f"second order: F = {F_TRUE}, estimate = {est2.value:.12f}")

# initial conditions are annihilated by construction
print("\nshift the whole window and watch the estimate stay put:")
for offset in (0.1, -5.0, 1000.0):
    shifted = estimate_f_nu1(Window(T, sigma, dy1 + offset), adu_window)
    print(f"  + {offset:8g}: estimate moves by {abs(shifted.value - est1.value):.3e}")

print("\nsecond order shrugs off affine additions a + b*t:")
for a, b in ((0.1, 0.0), (1000.0, -7.0)):
    shifted = estimate_f_nu2(Window(T, sigma, dy2 + a + b * sigma), adu_window)
    print(f"  a={a:6g} b={b:4g}: estimate moves by {abs(shifted.value - est2.value):.3e}")

# before a full window of data exists the estimate is flagged invalid
warmup = estimate_f_nu1(None, None)
print(f"\nwarm-up estimate: value = {warmup.value}, valid = {warmup.valid}")
