"""Invert the cubic B-spline sampling filter three independent ways.

h = [1, 4, 1]/6 has the closed-form inverse g[0] = sqrt(3),
g[k] = sqrt(3) (sqrt(3) - 2)^|k|, decaying at rate log(2 + sqrt(3)).
"""

import numpy as np

from wienerlab import (
    Filter,
    invert_exact_1d,
    invert_stable,
    min_modulus_certified,
    residual_sup,
    toeplitz_oracle,
)

h = Filter((-1,), np.array([1.0, 4.0, 1.0]) / 6.0)

cert = min_modulus_certified(h)
print(f"symbol min modulus: grid_min={cert.grid_min:.6f} "
      f"certified >= {cert.certified_lower_bound:.6f} ({cert.status})")

exact = invert_exact_1d(h)
print(f"\nexact route: g[0] = {exact.evaluate([0])[0]:.15f}  (sqrt(3) = {np.sqrt(3):.15f})")
print(f"decay rate  = {exact.decay_rate:.15f}  (log(2+sqrt 3) = {np.log(2 + np.sqrt(3)):.15f})")

g_fft = invert_stable(h, tail_tol=1e-12, window_radius=40)
print(f"\nFFT route: residual sup |h*g - delta| = {residual_sup(h, g_fft, 39):.2e}")

g_lsq = toeplitz_oracle(h, 30)
ks = np.arange(-30, 31)
diff = max(abs(g_fft.coeff_at((k,)) - g_lsq.coeff_at((k,))) for k in ks)
print(f"least-squares oracle (banded normal equations, factored once) agrees with FFT route to {diff:.2e}")

print("\nfirst few inverse coefficients:")
for k in range(4):
    print(f"  g[{k}] = {exact.evaluate([k])[0]: .12f}")
