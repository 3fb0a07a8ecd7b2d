"""Per-layer self time and call counts for otfsim runs, kept in memory.

``Tracer`` wraps otfsim's layer functions at the names through which
``otfsim.runner``, ``otfsim.modem`` and ``otfsim.multiuser`` call them,
and restores the original names when the ``with`` block ends.  Every
wrapped call is a span; a span's self time is its duration minus the
time covered by the spans it caused.  Spans are folded into per-layer
totals as they close, so memory does not grow with the run.

The two impulse-probed builders (``effective_matrix`` and
``chain_matrix``) are opaque: the modulate/channel/demodulate calls they
make for each probe are not recorded separately, so the whole build
shows as the builder's own time.
"""

from __future__ import annotations

import time
from collections import defaultdict

from otfsim import modem, multiuser, runner

# (module, attribute, layer metric, opaque)
WRAPPED = (
    (runner, "trial_rng", "runner.rng", False),
    (runner, "random_channel", "channel.draw", False),
    (runner, "apply_channel", "channel.apply", False),
    (runner, "tf_channel", "channel.tf_response", False),
    (runner, "effective_matrix", "channel.effective_matrix", True),
    (runner, "chain_matrix", "channel.chain_matrix", True),
    (runner, "mmse_filter", "equalizer.mmse_filter", False),
    (runner, "one_tap_tf", "equalizer.one_tap", False),
    (runner, "map_bits", "metrics.map_bits", False),
    (runner, "slice_symbols", "metrics.slice", False),
    (runner, "count_errors", "metrics.count_errors", False),
    (runner, "papr", "metrics.papr", False),
    (runner, "heisenberg", "transforms.heisenberg", False),
    (runner, "wigner", "transforms.wigner", False),
    (modem, "modulate", "modem.modulate", False),
    (modem, "demodulate", "modem.demodulate", False),
    (modem, "isfft", "transforms.isfft", False),
    (modem, "sfft", "transforms.sfft", False),
    (modem, "heisenberg", "transforms.heisenberg", False),
    (modem, "wigner", "transforms.wigner", False),
    (multiuser, "downlink_superpose", "multiuser.superpose", False),
    (multiuser, "despread_user", "multiuser.despread", False),
)


class Tracer:
    """Context manager that records per-layer self time (s) and calls."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._children = []  # per open span: time covered by its child spans
        self._opaque = 0
        self._saved = []

    def _wrap(self, fn, layer: str, opaque: bool):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            self._children.append(0.0)
            self._opaque += int(opaque)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._opaque -= int(opaque)
                self.self_s[layer] += duration - self._children.pop()
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += duration

        return traced

    def __enter__(self):
        for module, name, layer, opaque in WRAPPED:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, layer, opaque))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)
        return False

    def covered_s(self) -> float:
        """Total time inside any span (the sum of all self times)."""
        return sum(self.self_s.values())
