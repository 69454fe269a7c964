"""Cardinal-spline interpolation kernels by two independent routes.

The space route inverts the integer samples of the cubic B-spline and
assembles phi_int = sum h[k] phi(. - k); the Fourier route periodizes
the Green's-function symbol 1/w^4. Both must agree, decay at rate
log(2 + sqrt(3)), and reproduce cubic polynomial pieces.
"""

import numpy as np

from wienerlab import (
    bspline_generator,
    green_power_generator,
    lagrange_kernel_fourier,
    lagrange_kernel_space,
    reproduction_check,
)

k_space = lagrange_kernel_space(bspline_generator(3), grid_step=1 / 16, K=20)
k_fourier = lagrange_kernel_fourier(green_power_generator(4), grid_step=1 / 16, K=20)

diff = np.max(np.abs(k_space.samples - k_fourier.samples))
print(f"route agreement: sup difference {diff:.2e}")
print(f"space route decay:   {k_space.decay.model}, rate {k_space.decay.rate:.5f}")
print(f"fourier route decay: {k_fourier.decay.model}, rate {k_fourier.decay.rate:.5f}")
print(f"reference rate log(2+sqrt 3) = {np.log(2 + np.sqrt(3)):.5f}")

print("\ninterpolation property at the integers:",
      np.max(np.abs(k_space.integer_samples - (np.arange(-20, 21) == 0))))

# reproduction of one-sided and symmetric cubics
wide = lagrange_kernel_space(bspline_generator(3), grid_step=1 / 16, K=47)
xs = np.arange(-5.0, 5.0 + 1e-9, 1 / 16)
res = reproduction_check(
    lambda k: np.where(k >= 0, k.astype(float) ** 3, 0.0),
    wide, lambda x: max(x, 0.0) ** 3, xs, K_sum=40, tol=1e-6,
)
print(f"\nsum k^3 phi_int(x-k) reproduces x_+^3 with residual "
      f"{res['max_residual']:.2e} (tail bound {res['tail_estimate']:.1e})")
