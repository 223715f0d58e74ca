"""Kraus channels: extraction, application, and equality testing.

Pulls the operator-sum representation out of a dilation, compares it with
the partial-trace route, builds Weyl channels (depolarizing, phase damping),
and decides channel equality through Choi matrices.

Run from the repository root:  python3 demos/03_channels.py
"""

import numpy as np

from weylkit import (
    GammaTable,
    QuantumChannel,
    apply_channel,
    basis_ket,
    channel_from_dilation,
    channels_equal,
    choi_matrix,
    evolve_density,
    frobenius_distance,
    is_trace_preserving,
    kraus_mix,
    partial_trace_env,
    unitality_deficit,
    weyl_channel,
)
from weylkit.rand import random_density, random_gamma, random_unitary

np.set_printoptions(precision=3, suppress=True, linewidth=100)
rng = np.random.default_rng(23)

d = 2

# ---------------------------------------------------------------------------
# Extract Kraus operators from a dilation.  Each environment slot (a, b)
# contributes the rank-one operator gamma[a, b] |a-2b><-b|, so the list is
# rank-one throughout and complete by construction.
g = random_gamma(d, rng)
ch = channel_from_dilation(g)
print(f"extracted {len(ch)} Kraus operators for d = {d}")
ok, deficit = is_trace_preserving(ch)
print("trace-preserving:", ok, " deficit:", deficit)
print("unitality deficit:", unitality_deficit(ch))

# The two routes of the operator-sum representation agree: conjugate by the
# Kraus list, or evolve the joint density and trace out the environment.
rho = random_density(d, rng)
via_kraus = apply_channel(ch, rho)
via_trace = partial_trace_env(evolve_density(rho, g), d, d * d)
print("Kraus vs partial-trace distance:", frobenius_distance(via_kraus, via_trace))

# ---------------------------------------------------------------------------
# Weyl channels: weighted mixtures of X_l Z_k conjugations.
uniform = weyl_channel(np.full((d, d), 1.0 / (d * d)))
print("\nuniform Weyl channel on a random state -> I/d:")
print(apply_channel(uniform, rho))

damping = weyl_channel(np.array([[0.5, 0.5], [0.0, 0.0]]))
print("\nphase damping (half weight on Z) kills off-diagonals:")
print("in: \n", rho)
print("out:\n", apply_channel(damping, rho))

# ---------------------------------------------------------------------------
# Kraus lists are not unique: mixing by any unitary leaves the channel
# untouched.  Equality is therefore decided on the Choi matrix.
mixed = kraus_mix(ch, random_unitary(len(ch), rng))
print("\nChoi distance after unitary mixing:",
      frobenius_distance(choi_matrix(ch), choi_matrix(mixed)))
print("channels_equal(ch, mixed):", channels_equal(ch, mixed, 1e-10))

identity = QuantumChannel(d=d, kraus=(np.eye(d),))
print("identity vs depolarizing Choi distance:",
      frobenius_distance(choi_matrix(identity), choi_matrix(uniform)))
print("channels_equal(identity, depolarizing):", channels_equal(identity, uniform, 1.0))

# A uniform-magnitude dilation IS a Weyl channel: the Choi matrices agree.
g_uniform = GammaTable.uniform(d)
print("\nuniform-magnitude dilation vs uniform Weyl channel:",
      channels_equal(channel_from_dilation(g_uniform), uniform, 1e-9))

# The Choi matrix of the identity channel is the maximally entangled
# projector; of the depolarizing channel, the maximally mixed operator.
print("\nChoi(identity):\n", choi_matrix(identity).real)
print("Choi(depolarizing):\n", choi_matrix(uniform).real)

# Basis states route through a single-entry dilation like classical labels.
g_reset = GammaTable(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
reset = channel_from_dilation(g_reset)
print("\nreset-style dilation sends everything to |0><0|:")
print(apply_channel(reset, np.outer(basis_ket(d, 1), basis_ket(d, 1))))
