"""Downlink: superposing users, inverting the channel, splitting power.

The base station serves several users at once.  This script superposes
per-user blocks with power weights, pre-inverts the composed channel
operator under a transmit power budget, and finally distributes power
across users of unequal channel quality with a water-filling search.
"""

import numpy as np

import otfsim as ot
from otfsim.frame import localized_map
from otfsim.modem import SchemeConfig
from otfsim.multiuser import despread_user, downlink_superpose, water_fill, zf_precode


def rule(title):
    print(f"\n--- {title} " + "-" * max(0, 60 - len(title)))


rng = np.random.default_rng(66)

rule("weighted superposition")
M, N = 8, 4
users = [(localized_map(M, 4, u), localized_map(N, 4, 0)) for u in range(2)]
blocks = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in users]
beta = [np.full(4, 1.0), np.full(4, 0.25)]  # one weight per transmit row
Y = downlink_superpose([x * w[:, None] for x, w in zip(blocks, beta)], users, mode="dd_mapped")
for u, (x, (f, t)) in enumerate(zip(blocks, users)):
    est = despread_user(Y, freq_map=f, time_map=t, domain="dd")
    scale = np.median(np.abs(est / x))
    print(f"  user {u}: weight {beta[u][0]:.2f}, recovered amplitude ratio {scale:.6f}")

rule("zero-forcing the composed operator")
params = ot.make_frame(4, 4)
ch = ot.DDChannelSpec(taps=((0, 0, 1.0), (1, 1, 0.25), (2, -1, 0.15j)))
H = ot.effective_matrix(SchemeConfig("OTFS", params), ch, mode="cyclic")
pre = ot.zf_precode(H, user_partition=[range(0, 8), range(8, 16)], power_budget=2.0)
print(f"  operator condition number {pre.condition_number:.3f}")
print(f"  ||P||_F^2 = {np.linalg.norm(pre.P, 'fro') ** 2:.12f}  (budget 2.0)")
resid = np.abs(H @ pre.P - pre.beta[0] * np.eye(16)).max()
print(f"  H @ P = beta * I with beta = {pre.beta[0]:.6f}; off-target residual {resid:.2e}")
x = rng.normal(size=16) + 1j * rng.normal(size=16)
y = H @ (pre.P @ x)
print(f"  round trip through channel: |y/beta - x| = {np.abs(y / pre.beta[0] - x).max():.2e}")

rule("water-filling across unequal users")
gains = np.array([2.0, 1.0, 0.25, 0.04])
noise_var = 0.1
for budget in (4.0, 0.5):
    p = water_fill(gains, total_power=budget, noise_var=noise_var)
    floors = noise_var / gains
    active = p > 0
    levels = np.where(active, p + floors, np.nan)
    print(f"  budget {budget:4.1f}: powers {np.array2string(p, precision=4)}")
    print(f"             common water level on active users: "
          f"{np.nanstd(levels):.2e} spread around {np.nanmean(levels):.4f}")
    if not active.all():
        off = np.flatnonzero(~active)
        print(f"             users {off.tolist()} shut off (their floor sits above the water)")
    rates = np.log2(1.0 + gains * p / noise_var)
    print(f"             sum rate {rates.sum():.4f} bit/symbol")
print("a tighter budget concentrates everything on the strongest users;")
print("the weakest user only gets power once the budget is generous.")
