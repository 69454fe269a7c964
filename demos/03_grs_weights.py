"""The GRS dichotomy for submultiplicative weights.

lim_m w[mk]^{1/m} = 1 separates weights whose algebras are inverse-closed
(polynomial, subexponential) from those that are not (exponential). Each
built-in weight reports its exact limit; the samples approach it from
above, slowly for a subexponential weight with b near 1.
"""

from wienerlab import (
    Box,
    exponential_weight,
    extended_grs,
    grs_limit,
    polynomial_weight,
    submultiplicative_check,
    subexponential_weight,
)

weights = {
    "polynomial n=3": polynomial_weight(3),
    "exponential r=0.5": exponential_weight(0.5),
    "subexponential r=1 b=0.5": subexponential_weight(1.0, 0.5),
    # its samples at m = 2^20 are still 1.28, yet the limit is 1
    "subexponential r=1 b=0.9": subexponential_weight(1.0, 0.9),
}

box = Box((-8,), (17,))
for name, w in weights.items():
    bad = submultiplicative_check(w, box)
    est = grs_limit(w, k=[1], m_max=2**20)
    print(f"{name}: submultiplicative on box: {not bad}; "
          f"limit {est.extrapolated_limit:.6f} -> {est.verdict}")
    head = ", ".join(f"m={m}: {v:.4f}" for m, v in est.samples[:4])
    print(f"  samples {head}, ..., m={est.samples[-1][0]}: {est.samples[-1][1]:.4f}")

# a decreasing family whose members all fail GRS, but whose infimum passes
family = [exponential_weight(1.0 / n) for n in (1, 4, 16, 256, 4096)]
res = extended_grs(family, k=[1], m_max=2**16)
print(f"\ndecreasing exponential family: inf limit {res['inf_limit']:.6f} "
      f"-> {res['verdict']}")
