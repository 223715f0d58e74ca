"""System-environment dilation of a qudit interaction.

Starts from a table of environment amplitudes gamma[a, b], builds the
explicit isometry V: C^d -> C^d (x) C^(d**2), evolves pure and mixed
states, and regroups the joint state into its Weyl form.

Run from the repository root:  python3 demos/02_dilation.py
"""

import numpy as np

from weylkit import (
    GammaTable,
    basis_ket,
    env_gram,
    evolve_density,
    evolve_pure,
    frobenius_distance,
    make_isometry,
    partial_trace_env,
    weyl_form_of_joint,
)
from weylkit.rand import random_gamma, random_ket

np.set_printoptions(precision=3, suppress=True, linewidth=100)
rng = np.random.default_rng(11)

d = 3

# ---------------------------------------------------------------------------
# A gamma table is valid when every column has unit l2 mass; that single
# condition makes the dilation an isometry.
g = random_gamma(d, rng)
print("column masses:", np.sum(np.abs(g.gamma) ** 2, axis=0))

v = make_isometry(g)
print("V shape:", v.shape)
print("||V^dagger V - I|| =", frobenius_distance(v.conj().T @ v, np.eye(d)))

# ---------------------------------------------------------------------------
# Pure-state evolution is just V acting on the state; the joint vector keeps
# unit norm.
psi = random_ket(d, rng)
joint = evolve_pure(psi, g)
print("\njoint state dimension:", joint.shape[0], " norm:", np.linalg.norm(joint))

# ---------------------------------------------------------------------------
# The same joint state regroups into d**2 Weyl terms: system factor
# X_l Z_k |psi>, environment factor the unnormalized vector v_lk.
terms = weyl_form_of_joint(psi, g)
reassembled = sum(np.kron(t.sys, t.env) for t in terms) / d
print("Weyl reassembly error:", np.linalg.norm(reassembled - joint))

print("\nenvironment term norms ||v_lk|| (rows l, columns k):")
norms = np.array([[np.linalg.norm(t.env) for t in terms if t.l == l] for l in range(d)])
print(norms)
print("note: the norms do not depend on k (the k index only rotates phases)")

# The overlap structure of the v_lk decides when the dilated channel is a
# pure Weyl mixture: uniform magnitudes make each per-l block the identity.
uniform = GammaTable.uniform(d)
print("\nper-l overlap block for a uniform table (l = 0):\n", env_gram(uniform)[0])
print("per-l overlap block for a random table (l = 0):\n", env_gram(g)[0])

# ---------------------------------------------------------------------------
# Mixed states ride along by conjugation; purity and trace survive, and
# tracing the environment back out recovers a d x d state again.
rho = np.outer(psi, psi.conj())
joint_rho = evolve_density(rho, g)
print("\njoint density trace:", np.trace(joint_rho).real)
print("purity preserved:", frobenius_distance(joint_rho, np.outer(joint, joint.conj())) < 1e-12)

reduced = partial_trace_env(joint_rho, d, d * d)
print("reduced state after the interaction:\n", reduced)

# A uniform-magnitude table scrambles completely: whatever goes in, the
# maximally mixed state comes out.
for ket_index in range(d):
    rho_in = np.outer(basis_ket(d, ket_index), basis_ket(d, ket_index))  # a real ket needs no conjugate
    reduced = partial_trace_env(evolve_density(rho_in, uniform), d, d * d)
    print(f"input |{ket_index}><{ket_index}| ->  distance from I/d:",
          frobenius_distance(reduced, np.eye(d) / d))
