"""Oscillation profiles and Young-function scores for the built-in families."""

import numpy as np

import vilenkin as vk
from vilenkin import families, oscillation


def profile_table(label, f):
    prof = oscillation.oscillation_profile(f)
    print(label)
    print("  k  M_k   omega_k     O_k         nu_k")
    for k in range(1, prof.resolution + 1):
        print(f"  {k}  {prof.scale_cells[k]:4d}  {prof.omega[k]:<10.4e}"
              f"  {prof.total[k]:<10.4e}  {prof.nu[k]:<10.4e}")


def main():
    ns = vk.number_system([2, 3, 4, 2, 3])
    rng = np.random.default_rng(11)

    f = families.lacunary(ns, families.inverse_scale_coeffs(ns))
    profile_table("lacunary, inverse-scale coefficients:", f)

    g = families.random_lipschitz(ns, rng)
    profile_table("random Lipschitz draw:", g)

    M2 = oscillation.YoungFunction(p=2.0)
    for label, h in (("lacunary", f), ("lipschitz", g)):
        score = oscillation.young_oscillation_score(h, M2)
        print(f"Young score (p=2) for {label}: {score:.4e}")

    for alpha in (0.25, 0.75):
        rep = oscillation.young_series(M2, ns, alpha)
        print(f"Young series p=2, alpha={alpha}: terms "
              + " ".join(f"{t:.3f}" for t in rep.terms)
              + f"  -> converges={rep.converges}")


if __name__ == "__main__":
    main()
