"""Outside-in layer trace: spans around calls into each layer's public API.

The traced run binds a timing wrapper at the point where each caller
looks a function up: class attributes for methods, and module globals
for functions imported by name (``hilbert`` as imported into both
``repro.core.link`` and ``repro.perf.batch``, for example).  Nothing
inside ``src/`` changes; the wrappers only read the clock and pass
arguments and results through, so a traced campaign must produce the
same digest as an untraced one.

Spans are ``[name, start, end, parent]`` lists kept in memory and
reduced once at the end: a span's self time is its duration minus the
time its direct children cover, and a layer's total time counts only
the outermost span when a name nests inside itself.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

from repro.acoustics.channel import AcousticChannel
from repro.acoustics.noise import AmbientNoiseModel
from repro.core import BackscatterLink, Projector
from repro.dsp.demod import BackscatterDemodulator
from repro.net import ReaderController
from repro.node import PABNode
from repro.obs import (
    AnomalyMonitor,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NodeEnergyHarness,
    SLOTracker,
    TelemetryBus,
)
from repro.perf import cache_stats
from repro.perf.batch import BatchedLinkEngine

#: ``(span name, class, method)`` — bound on the class, so every
#: instance (including ones built before the trace started) sees them.
METHODS = (
    ("perf.batch.prewarm", BatchedLinkEngine, "prewarm_round"),
    ("core.link.run_query", BackscatterLink, "run_query"),
    ("core.projector.synth", Projector, "query_waveform"),
    ("core.projector.synth", Projector, "query_then_carrier"),
    ("core.projector.synth", Projector, "carrier_waveform"),
    ("acoustics.channel.apply", AcousticChannel, "apply"),
    ("acoustics.noise.generate", AmbientNoiseModel, "generate"),
    ("dsp.demod", BackscatterDemodulator, "demodulate"),
    ("dsp.demod", BackscatterDemodulator, "demodulate_from_baseband"),
    ("node.power_up", PABNode, "try_power_up"),
    ("node.receive_query", PABNode, "receive_query"),
    ("net.poll", ReaderController, "poll"),
    ("resilience.checkpoint", ReaderController, "save_checkpoint"),
    ("obs.harness", NodeEnergyHarness, "on_poll_round"),
    ("obs.bus.flush", TelemetryBus, "flush"),
    ("obs.slo", SLOTracker, "observe_round"),
    ("obs.analytics", AnomalyMonitor, "observe_campaign_round"),
    ("obs.metrics", MetricsRegistry, "counter"),
    ("obs.metrics", MetricsRegistry, "gauge"),
    ("obs.metrics", MetricsRegistry, "histogram"),
    ("obs.metrics", Counter, "inc"),
    ("obs.metrics", Gauge, "set"),
    ("obs.metrics", Gauge, "inc"),
    ("obs.metrics", Histogram, "observe"),
)

#: ``(span name, module, global)`` — bound where the caller's module
#: looks the name up at call time.
GLOBALS = (
    ("dsp.hilbert", "repro.core.link", "hilbert"),
    ("dsp.hilbert", "repro.perf.batch", "hilbert"),
    ("dsp.fftconvolve", "repro.acoustics.channel", "fftconvolve"),
    ("dsp.fftconvolve", "repro.perf.batch", "fftconvolve"),
    ("dsp.fftconvolve", "repro.perf.kernels", "fftconvolve"),
    ("dsp.sync.correlate", "repro.dsp.sync", "preamble_correlation"),
    ("dsp.sync.correlate", "repro.perf.batch", "batched_preamble_correlation"),
    ("dsp.fm0.decode", "repro.dsp.demod", "fm0_ml_decode"),
    ("resilience.supervise", "repro.net.reader", "supervise"),
)

#: Modules that call ``scipy.fft.<fn>`` through their ``scipy`` global.
FFT_CALLERS = ("repro.core.link", "repro.perf.batch")
FFT_FUNCTIONS = ("rfft", "irfft")

#: Caches reported by hit ratio (a cache the workload never created reads 0).
CACHES = (
    "channel_irs", "channel_paths", "demodulators", "fir_kernels",
    "fm0_chips", "link_legs", "pwm_templates", "sync_templates",
)


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n > 1 and n % p == 0:
            n //= p
    return n == 1


class _Namespace:
    """Attribute proxy: selected names overridden, the rest delegated."""

    def __init__(self, real, **overrides) -> None:
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class LayerTrace:
    """In-memory span recorder plus the counts measured at the same calls."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.planned = 0
        self.noise_samples = 0
        self.hilbert_lengths: list = []

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. during fleet set-up)."""
        self.spans.clear()
        self.planned = 0
        self.noise_samples = 0
        self.hilbert_lengths.clear()

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counts taken at the wrapped calls ---------------------------------------

    def _count_planned(self, args, kwargs, result) -> None:
        self.planned += int(result)

    def _count_noise(self, args, kwargs, result) -> None:
        self.noise_samples += int(np.shape(result)[-1])

    def _count_hilbert(self, args, kwargs, result) -> None:
        self.hilbert_lengths.append(int(np.shape(result)[kwargs.get("axis", -1)]))

    def install(self) -> None:
        """Bind every wrapper.  Call before the fleet is built, so bound
        methods captured at set-up (``link.run_query``) are traced too."""
        after = {
            "perf.batch.prewarm": self._count_planned,
            "acoustics.noise.generate": self._count_noise,
            "dsp.hilbert": self._count_hilbert,
        }
        for name, cls, attr in METHODS:
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], after.get(name)))
        for name, module_name, attr in GLOBALS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), after.get(name)))
        for module_name in FFT_CALLERS:
            module = importlib.import_module(module_name)
            real = module.scipy
            fft = _Namespace(
                real.fft,
                **{f: self.wrap("dsp.fft", getattr(real.fft, f)) for f in FFT_FUNCTIONS},
            )
            module.scipy = _Namespace(real, fft=fft)

    # -- reduction ---------------------------------------------------------------

    def layers(self) -> dict:
        """``{name: {"calls", "total_s", "self_s"}}`` over recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(spans):
            row = out[name]
            row["self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                row["calls"] += 1
                row["total_s"] += end - start
        return dict(out)

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def per_layer(self, campaign_s: float, check: dict) -> dict:
        """The per-layer metrics named in ``BENCHMARK.json``."""
        layers = self.layers()

        def get(name, key):
            return layers.get(name, {}).get(key, 0)

        exchanges = get("core.link.run_query", "calls")
        lengths = self.hilbert_lengths
        out = {
            "perf.batch.prewarm_s": get("perf.batch.prewarm", "total_s"),
            "perf.batch.prewarm.self_s": get("perf.batch.prewarm", "self_s"),
            "perf.batch.planned": self.planned,
            "perf.batch.planned_per_exchange": (
                self.planned / exchanges if exchanges else 0.0
            ),
        }
        caches = cache_stats()
        for name in CACHES:
            stats = caches.get(name)
            out[f"perf.cache.{name}.hit_ratio"] = stats.hit_ratio if stats else 0.0
        out.update({
            "core.link.exchanges": exchanges,
            "core.link.run_query_s": get("core.link.run_query", "total_s"),
            "core.link.run_query.self_s": get("core.link.run_query", "self_s"),
            "core.projector.synth_s": get("core.projector.synth", "total_s"),
            "acoustics.channel.apply_s": get("acoustics.channel.apply", "total_s"),
            "acoustics.channel.calls": get("acoustics.channel.apply", "calls"),
            "acoustics.noise.generate_s": get("acoustics.noise.generate", "total_s"),
            "acoustics.noise.samples": self.noise_samples,
            "dsp.hilbert_s": get("dsp.hilbert", "total_s"),
            "dsp.hilbert.calls": get("dsp.hilbert", "calls"),
            "dsp.hilbert.non_smooth_share": (
                sum(not _is_5_smooth(n) for n in lengths) / len(lengths)
                if lengths else 0.0
            ),
            "dsp.fft_s": get("dsp.fft", "total_s"),
            "dsp.fftconvolve_s": get("dsp.fftconvolve", "total_s"),
            "dsp.sync.correlate_s": get("dsp.sync.correlate", "total_s"),
            "dsp.demod_s": get("dsp.demod", "total_s"),
            "dsp.demod.calls": get("dsp.demod", "calls"),
            "dsp.fm0.decode_s": get("dsp.fm0.decode", "total_s"),
            "node.power_up_s": get("node.power_up", "total_s"),
            "node.power_up.calls": get("node.power_up", "calls"),
            "node.receive_query_s": get("node.receive_query", "total_s"),
            "net.poll.self_s": get("net.poll", "self_s"),
            "net.polls": get("net.poll", "calls"),
            "net.retries": check["sim"]["retries"],
            "net.downgrades": check["sim"]["downgrades"],
            "net.quarantines": check["quarantines"],
            "faults.injected": check["faults"],
            "obs.self_s": sum(
                row["self_s"] for name, row in layers.items() if name.startswith("obs.")
            ),
            "obs.harness_s": get("obs.harness", "total_s"),
            "obs.bus.events": check.get("bus_events", 0),
            "obs.bus.flush_s": get("obs.bus.flush", "total_s"),
            "obs.slo_s": get("obs.slo", "total_s"),
            "obs.analytics_s": get("obs.analytics", "total_s"),
            "resilience.self_s": sum(
                row["self_s"] for name, row in layers.items()
                if name.startswith("resilience.")
            ),
            "resilience.checkpoint_s": get("resilience.checkpoint", "total_s"),
            "resilience.checkpoint.bytes": check.get("checkpoint_bytes", 0),
            "trace.coverage": self.top_level_s() / campaign_s if campaign_s else 0.0,
        })
        return out
