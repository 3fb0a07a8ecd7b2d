"""Independent reference link used to check otfsim's error counts.

Written from the signal model, not from otfsim's code: explicit DFT
matrices instead of FFTs, the per-slot cyclic-prefix channel evaluated on
the prefixed sample stream, one-tap detection from the sampled
time-frequency response, and LMMSE detection solved slot by slot on the
time-frequency grid (equal to joint delay-Doppler LMMSE because the
lattice transform and the slot DFT are unitary).

With w = exp(2j*pi/(M*N)) and a tap (delay bin l, Doppler bin k, gain g):

* ISFFT    X[m, n] = 1/sqrt(MN) sum_{k,l} x[k, l] exp(2j*pi*(n*k/N - m*l/M))
* slot synthesis with prefix, q = 0 .. M+cp-1:
           s_n[q] = 1/sqrt(M) sum_m X[m, n] exp(2j*pi*m*(q - cp)/M)
* channel  r_n[q] = sum_taps g * s_n[q - l] * w**(k*(n*M + q - cp - l))  (q >= cp)
* receive  Y[m, n] = 1/sqrt(M) sum_p r_n[cp + p] exp(-2j*pi*m*p/M), then SFFT
* one tap  H[m, n] = sum_taps g * exp(-2j*pi*m*l/M) * w**(k*(n*M - l))
* LMMSE    B_n = sum_taps g * w**(k*(n*M - l)) * F_M D_k P_l F_M^H  per slot,
           X_hat_n = B_n^H (B_n B_n^H + noise_var I)^-1 Y_n

Downlink ``dd_mapped`` multiplexing places user u's (N_D, M_d) block on
its own rows and columns of the delay-Doppler grid before the ISFFT.

Random draws follow otfsim's documented determinism contract: trial t at
SNR index s of a scenario with seed ``seed`` draws from
``Generator(Philox(key=seed, counter=[0, t, s, 0]))`` in the order channel
(real then imaginary Gaussian parts of the L_max x (2*V_max - 1) tap
grid), bits (``integers(0, 2)``), noise (real then imaginary Gaussian
parts over every prefixed sample of the frame).
"""

from __future__ import annotations

import numpy as np

SQRT_HALF = np.sqrt(0.5)


def dft(n: int) -> np.ndarray:
    """Unitary DFT matrix F[a, b] = exp(-2j*pi*a*b/n) / sqrt(n)."""
    a = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(a, a) / n) / np.sqrt(n)


class Link:
    """Reference model of one scenario (the subset the benchmark runs)."""

    def __init__(self, scenario: dict):
        frame = scenario["frame"]
        self.M, self.N = int(frame["M"]), int(frame["N"])
        self.cp = int(frame.get("cp_len", 0))
        if scenario["scheme"] != "OTFS" or scenario["constellation"] != "QPSK":
            raise ValueError("reference link covers OTFS with QPSK only")
        if scenario.get("channel_mode", "per_slot_cp") != "per_slot_cp":
            raise ValueError("reference link covers the per-slot prefix channel only")
        self.equalizer = scenario.get("equalizer", "one_tap_tf")
        if self.equalizer not in ("one_tap_tf", "mmse_dd"):
            raise ValueError(f"reference link has no {self.equalizer!r} detector")
        self.seed = int(scenario["seed"])
        self.trials = int(scenario["trials"])
        self.snr_db = [float(s) for s in scenario["snr_db_list"]]
        channel = scenario["channel"]
        if "taps" in channel:
            self.taps = [
                (int(t["delay_bin"]), int(t["doppler_bin"]), complex(t["re"], t["im"]))
                for t in channel["taps"]
            ]
            self.random = None
        else:
            self.taps = None
            self.random = (int(channel["random"]["L_max"]), int(channel["random"]["V_max"]))
        self.users = self._user_tiles(scenario.get("multiuser"))

        M, N = self.M, self.N
        self.F_M, self.F_N = dft(M), dft(N)
        q = np.arange(M + self.cp) - self.cp
        # slot synthesis matrix over prefix and body samples
        self.G = np.exp(2j * np.pi * np.outer(q, np.arange(M)) / M) / np.sqrt(M)
        self.w = np.exp(2j * np.pi / (M * N))

    def _user_tiles(self, mu):
        """Row and column index sets of each user on the (N, M) DD grid."""
        if mu is None:
            return None
        if mu["mode"] != "dd_mapped" or mu.get("mapping", "localized") != "localized":
            raise ValueError("reference link covers localized dd_mapped downlink only")
        K_d, K_D = int(mu["K_d"]), int(mu["K_D"])
        M_d, N_D = self.M // K_d, self.N // K_D
        return [
            (np.arange(kt * N_D, (kt + 1) * N_D), np.arange(kf * M_d, (kf + 1) * M_d))
            for kf in range(K_d)
            for kt in range(K_D)
        ]

    # -- signal chain -------------------------------------------------------

    def isfft(self, x_dd):
        return self.F_M @ x_dd.T @ self.F_N.conj().T

    def sfft(self, x_tf):
        return (self.F_M.conj().T @ x_tf @ self.F_N).T

    def synthesize(self, X):
        """(N, M + cp) prefixed sample stream, one row per slot."""
        return (self.G @ X).T

    def channel(self, s, taps):
        """Body samples (N, M) received through the per-slot prefix channel."""
        M, N, cp = self.M, self.N, self.cp
        q = np.arange(cp, cp + M)
        n = np.arange(N)[:, None]
        r = np.zeros((N, M), dtype=complex)
        for l, k, g in taps:
            if l > cp:
                raise ValueError(f"delay bin {l} exceeds the prefix {cp}")
            r += g * s[:, q - l] * self.w ** (k * (n * M + q[None, :] - cp - l))
        return r

    def receive(self, r_body):
        return self.F_M @ r_body.T

    # -- detectors ------------------------------------------------------------

    def tf_response(self, taps):
        m = np.arange(self.M)[:, None]
        n = np.arange(self.N)[None, :]
        H = np.zeros((self.M, self.N), dtype=complex)
        for l, k, g in taps:
            H += g * np.exp(-2j * np.pi * m * l / self.M) * self.w ** (k * (n * self.M - l))
        return H

    def slot_operators(self, taps):
        """(N, M, M) per-slot time-frequency operators B_n."""
        M, N = self.M, self.N
        p = np.arange(M)
        B = np.zeros((N, M, M), dtype=complex)
        for l, k, g in taps:
            shift = np.roll(np.eye(M), l, axis=0)  # (P_l s)[p] = s[p - l]
            ramp = self.w ** (k * p)
            core = self.F_M @ (ramp[:, None] * shift) @ self.F_M.conj().T
            B += (g * self.w ** (k * (np.arange(N) * M - l)))[:, None, None] * core
        return B

    def detector(self, taps, noise_var):
        """Function mapping the received (M, N) TF grid to the DD estimate."""
        if self.equalizer == "one_tap_tf":
            H = self.tf_response(taps)
            return lambda Y: self.sfft(H.conj() * Y / (np.abs(H) ** 2 + noise_var))
        B = self.slot_operators(taps)
        Bh = B.conj().transpose(0, 2, 1)
        gram = B @ Bh + noise_var * np.eye(self.M)
        W = Bh @ np.linalg.inv(gram)
        return lambda Y: self.sfft((W @ Y.T[:, :, None])[:, :, 0].T)

    # -- one trial ------------------------------------------------------------

    def draw_channel(self, rng):
        L, V = self.random
        shape = (L, 2 * V - 1)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        g /= np.linalg.norm(g)
        return [(l, j - (V - 1), g[l, j]) for l in range(L) for j in range(2 * V - 1)]

    def qpsk(self, bits):
        b = bits.reshape(-1, 2)
        return ((1 - 2 * b[:, 0]) + 1j * (1 - 2 * b[:, 1])) * SQRT_HALF

    def payload(self, symbols):
        """DD grid carrying the symbols (user blocks for the downlink)."""
        M, N = self.M, self.N
        if self.users is None:
            return symbols.reshape(N, M)
        x = np.zeros((N, M), dtype=complex)
        block = symbols.size // len(self.users)
        for u, (rows, cols) in enumerate(self.users):
            x[np.ix_(rows, cols)] = symbols[u * block : (u + 1) * block].reshape(
                rows.size, cols.size
            )
        return x

    def estimates(self, x_hat):
        """Flatten a DD estimate back into transmit symbol order."""
        if self.users is None:
            return x_hat.reshape(-1)
        return np.concatenate([x_hat[np.ix_(rows, cols)].reshape(-1) for rows, cols in self.users])

    def point_errors(self, snr_index: int):
        """(bit errors, symbol errors) over every trial of one SNR point."""
        noise_var = 10.0 ** (-self.snr_db[snr_index] / 10.0)
        scale = np.sqrt(noise_var / 2.0)
        n_sym = self.M * self.N
        fixed = None if self.taps is None else self.detector(self.taps, noise_var)
        be = se = 0
        for t in range(self.trials):
            rng = np.random.Generator(
                np.random.Philox(key=self.seed, counter=[0, t, snr_index, 0])
            )
            taps = self.taps if self.random is None else self.draw_channel(rng)
            bits = rng.integers(0, 2, size=2 * n_sym)
            s = self.synthesize(self.isfft(self.payload(self.qpsk(bits))))
            noise = rng.normal(scale=scale, size=s.size) + 1j * rng.normal(scale=scale, size=s.size)
            r = self.channel(s, taps) + noise.reshape(s.shape)[:, self.cp :]
            detect = fixed if fixed is not None else self.detector(taps, noise_var)
            est = self.estimates(detect(self.receive(r)))
            rx_bits = np.stack([est.real < 0, est.imag < 0], axis=1).astype(bits.dtype)
            wrong = rx_bits.reshape(-1) != bits
            be += int(wrong.sum())
            se += int(wrong.reshape(-1, 2).any(axis=1).sum())
        return be, se
