"""Tour of the group plumbing: digit ladders, coset reps, character tables.

A point of G_m is its cell index n = sum_j n_j M_j; the digits are its
coordinates, and digit_matrix holds them for every cell at once.
"""

import numpy as np

import vilenkin as vk
from vilenkin.group import digit_matrix
from vilenkin.verify import character_shift_residual


def show_group(radices):
    ns = vk.number_system(radices)
    print(f"radices {radices}: M ladder = {list(ns.M)}")

    # digit expansion round trip: the digit rows weighted by the ladder give the index back
    D = digit_matrix(ns, ns.resolution)
    weights = np.array(ns.M[:-1], dtype=np.int64)
    for n in (0, 1, 7, ns.cell_count - 1):
        d = vk.digits_of(ns, n)
        print(f"  n={n:4d} digits={d} row={tuple(D[n].tolist())} back={int(D[n] @ weights)}")

    # coset representatives at level 2: the cell of Z_beta^(k) and its digits below k
    k = 2
    print(f"  coset reps at level {k}:")
    for beta, cell in enumerate(vk.coset_rep_cells(ns, k, ns.resolution).tolist()):
        if beta:
            print(f"    beta={beta}  cell={cell}  digits={vk.digits_of(ns, cell)[:k]}")

    # orthonormality of the character table
    F = vk.character_block(ns, 0, ns.cell_count)
    gram = F.conj().T @ F / ns.cell_count
    print(f"  gram residual = {np.max(np.abs(gram - np.eye(ns.cell_count))):.3e}")
    res = character_shift_residual(ns)
    print(f"  shift identity residual = {res:.3e}")


if __name__ == "__main__":
    show_group([2, 2, 2, 2])
    show_group([2, 3, 4])
