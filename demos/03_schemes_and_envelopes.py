"""The four waveform schemes and how they collapse into each other.

One modulator covers all four schemes.  With a single slot the
full-spread scheme becomes classic DFT-precoded single carrier, and the
transposed-grid scheme becomes plain OFDM; and the full-spread scheme
is the transposed-grid scheme run on the ISFFT of its payload.  The envelope statistics at
the bottom are the practical reason to care.
"""

import numpy as np

import otfsim as ot
from otfsim.metrics import get_constellation, map_bits
from otfsim.modem import SchemeConfig, demodulate, modulate, payload_shape


def rule(title):
    print(f"\n--- {title} " + "-" * max(0, 60 - len(title)))


rng = np.random.default_rng(23)

rule("payload geometry")
params = ot.make_frame(M=16, N=8)
single = ot.make_frame(M=16, N=1)
for name, p in [("OTFS", params), ("OSTF", params), ("OFDM", single), ("SCFDMA", single)]:
    print(f"  {name:7s} on {p.M}x{p.N}: payload shape {payload_shape(SchemeConfig(name, p))}")

rule("round trips")
for name, p in [("OTFS", params), ("OSTF", params), ("OFDM", single), ("SCFDMA", single)]:
    cfg = SchemeConfig(name, p, cp_len=3)
    x = rng.normal(size=payload_shape(cfg)) + 1j * rng.normal(size=payload_shape(cfg))
    err = np.abs(demodulate(cfg, modulate(cfg, x)) - x).max()
    print(f"  {name:7s} modulate -> demodulate residual {err:.2e}")

rule("single-slot reductions")
x = rng.normal(size=16) + 1j * rng.normal(size=16)
a = modulate(SchemeConfig("OTFS", single), x[None, :]).samples
b = modulate(SchemeConfig("SCFDMA", single), x).samples
print(f"  full-spread, one slot  vs SC-FDMA: max diff {np.abs(a - b).max():.2e}")
c = modulate(SchemeConfig("OSTF", single), x[:, None]).samples
d = modulate(SchemeConfig("OFDM", single), x).samples
print(f"  transposed, one slot   vs OFDM:    max diff {np.abs(c - d).max():.2e}")
g = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
e = modulate(SchemeConfig("OTFS", params), g).samples
f = modulate(SchemeConfig("OSTF", params), ot.isfft(g)).samples
print(f"  full-spread vs transposed grid after ISFFT: max diff {np.abs(e - f).max():.2e}")

rule("envelope statistics (2000 QPSK blocks each)")
qpsk = get_constellation("QPSK")
print(f"  {'scheme':7s} {'mean PAPR':>10s} {'p99 PAPR':>10s} {'worst':>8s}")
for name, p in [("OFDM", single), ("SCFDMA", single), ("OTFS", params), ("OSTF", params)]:
    cfg = SchemeConfig(name, p)
    shape = payload_shape(cfg)
    nsym = int(np.prod(shape))
    vals = np.empty(2000)
    for i in range(2000):
        bits = rng.integers(0, 2, size=2 * nsym)
        vals[i] = ot.papr(modulate(cfg, map_bits(bits, qpsk).reshape(shape)))
    print(f"  {name:7s} {vals.mean():10.3f} {np.quantile(vals, 0.99):10.3f} {vals.max():8.3f}")
print("SC-FDMA keeps the constant constellation modulus sample for sample,")
print("so its PAPR is exactly 1; the spread schemes pay several dB for")
print("spreading every symbol over the whole frame.")
