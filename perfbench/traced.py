"""Runs the labelshift CLI in this process with spans around public functions.

Usage: python3 perfbench/traced.py SPANS_JSON CLI_ARGS...

Each traced function is replaced, in every labelshift module that holds it
by name, with a wrapper that records a span. Self time is a span's duration
minus the time of the spans nested in it; the clock skips the tracer's own
bookkeeping (content hashing), so that cost shows only in the traced run's
total wall time. The per-layer metrics are written to SPANS_JSON and the
CLI's exit code is returned.
"""

import hashlib
import json
import sys
import time
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np

MIB = 1024 * 1024


class Tracer:
    def __init__(self):
        self._paused = 0.0
        self._stack = []  # [name, start, time spent in child spans]
        self.stats = {}

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t

    def stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})

    @contextmanager
    def span(self, name: str):
        frame = [name, self.now(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = self.now() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += duration
            s = self.stat(name)
            s["calls"] += 1
            s["self_s"] += duration - frame[2]
            s["durations"].append(duration)


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.data)
    return h.hexdigest()


class _DigestCache:
    """Digests of read-only arrays, keyed by identity while the array lives.

    The sweeps score one test draw with several predictors; hashing its
    features once keeps the traced run's overhead down.
    """

    def __init__(self):
        self._seen = {}

    def __call__(self, a) -> str:
        hit = self._seen.get(id(a))
        if hit is not None and hit[0]() is a:
            return hit[1]
        digest = _digest(a)
        if isinstance(a, np.ndarray) and not a.flags.writeable:
            self._seen[id(a)] = (weakref.ref(a), digest)
        return digest


def _predictor_key(pred) -> str:
    return f"{pred.architecture}/{pred.hidden_units}/{pred.m}/{pred.d}/{_digest(pred.parameters)}"


def install(tracer: Tracer) -> None:
    """Wraps the traced functions wherever labelshift modules hold them."""
    from labelshift import data, estimators, federated, predictor, types

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "labelshift"]
    features_digest = _DigestCache()

    def patch(module, attr, name, before=None, after=None, call=None):
        original = getattr(module, attr)
        call = call or original

        def wrapper(*args, **kwargs):
            stat = tracer.stat(name)
            if before is not None:
                with tracer.paused():
                    before(stat, *args, **kwargs)
            with tracer.span(name):
                result = call(*args, **kwargs)
            if after is not None:
                with tracer.paused():
                    after(stat, result)
            return result

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def key_in(stat, key):
        stat.setdefault("keys", []).append(key)

    def add(stat, field, amount):
        stat[field] = stat.get(field, 0) + amount

    patch(
        predictor, "predict_proba", "predictor.predict_proba",
        before=lambda s, pred, features: (
            key_in(s, (_predictor_key(pred), features_digest(features))),
            add(s, "rows", len(features)),
        ),
    )
    patch(
        predictor, "train_predictor", "predictor.train_predictor",
        before=lambda s, train, cfg: key_in(
            s, (_digest(train.features, train.labels), train.m, repr(cfg))
        ),
    )

    def em_after(stat, report):
        stat.setdefault("iters", []).append(report.iterations_used)
        add(stat, "unconverged", 0 if report.converged else 1)

    patch(estimators, "estimate_mlls_em", "estimators.estimate_mlls_em", after=em_after)
    for fn in ("estimate_bbse", "estimate_rlls", "estimate_vrls"):
        patch(estimators, fn, f"estimators.{fn}")
    for fn in ("build_federation", "exchange_marginals", "crossnode_listing_ratios", "evaluate"):
        patch(federated, fn, f"federated.{fn}")
    patch(
        federated, "train_global", "federated.train_global",
        before=lambda s, fed, weights, cfg: add(s, "rounds", cfg.rounds),
    )

    original_load_idx = data.load_idx

    def load_idx_peak(*args, **kwargs):
        # Peak bytes allocated during the call, numpy buffers included.
        tracemalloc.start()
        try:
            return original_load_idx(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            stat = tracer.stat("data.load_idx")
            stat["peak_mb"] = max(stat.get("peak_mb", 0.0), peak / MIB)

    patch(
        data, "load_idx", "data.load_idx", call=load_idx_peak,
        after=lambda s, ds: add(s, "out_mb", (ds.features.nbytes + ds.labels.nbytes) / MIB),
    )
    for fn in ("resample_by_marginal", "gen_gaussian_mixture"):
        patch(data, fn, f"data.{fn}")

    from_rows = types.ProbabilityMatrix.__dict__["from_rows"].__func__

    def from_rows_traced(cls, raw):
        name = "types.ProbabilityMatrix.from_rows"
        add(tracer.stat(name), "in_mb", getattr(raw, "nbytes", 0) / MIB)
        with tracer.span(name):
            return from_rows(cls, raw)

    types.ProbabilityMatrix.from_rows = classmethod(from_rows_traced)

    init = types.LabeledDataset.__init__

    def init_traced(self, *args, **kwargs):
        features = args[0] if args else kwargs["features"]
        add(tracer.stat("types.LabeledDataset"), "in_mb", getattr(features, "nbytes", 0) / MIB)
        with tracer.span("types.LabeledDataset"):
            init(self, *args, **kwargs)

    types.LabeledDataset.__init__ = init_traced


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named <module>.<function>.<stat>.

    A stat that needs at least one call reads 0 when the workload never
    calls the function.
    """
    st = tracer.stats
    out = {}

    def get(name):
        return st.get(name, {"calls": 0, "self_s": 0.0, "durations": []})

    def basic(name):
        s = get(name)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.s"] = s["self_s"]
        return s

    def unique_frac(s):
        keys = s.get("keys", [])
        return len(set(keys)) / len(keys) if keys else 0.0

    s = basic("predictor.predict_proba")
    total = sum(s["durations"])
    out["predictor.predict_proba.rows_per_s"] = s.get("rows", 0) / total if total else 0.0
    out["predictor.predict_proba.p50_ms"] = _pct(s["durations"], 50) * 1e3
    out["predictor.predict_proba.p95_ms"] = _pct(s["durations"], 95) * 1e3
    out["predictor.predict_proba.unique_frac"] = unique_frac(s)

    s = basic("predictor.train_predictor")
    out["predictor.train_predictor.unique_frac"] = unique_frac(s)

    s = basic("estimators.estimate_mlls_em")
    iters = s.get("iters", [])
    out["estimators.estimate_mlls_em.iters"] = sum(iters)
    out["estimators.estimate_mlls_em.iters_p50"] = _pct(iters, 50)
    out["estimators.estimate_mlls_em.iters_p95"] = _pct(iters, 95)
    out["estimators.estimate_mlls_em.iters_max"] = max(iters, default=0)
    out["estimators.estimate_mlls_em.unconverged"] = s.get("unconverged", 0)
    total = sum(s["durations"])
    out["estimators.estimate_mlls_em.us_per_iter"] = total / sum(iters) * 1e6 if iters else 0.0

    for fn in ("estimate_bbse", "estimate_rlls", "estimate_vrls"):
        basic(f"estimators.{fn}")
    for fn in ("build_federation", "exchange_marginals", "crossnode_listing_ratios",
               "train_global", "evaluate"):
        basic(f"federated.{fn}")
    s = get("federated.train_global")
    total = sum(s["durations"])
    out["federated.train_global.rounds_per_s"] = s.get("rounds", 0) / total if total else 0.0

    s = basic("data.load_idx")
    out["data.load_idx.peak_mb"] = s.get("peak_mb", 0.0)
    out["data.load_idx.out_mb"] = s.get("out_mb", 0.0)
    for fn in ("resample_by_marginal", "gen_gaussian_mixture"):
        basic(f"data.{fn}")
    for name in ("types.ProbabilityMatrix.from_rows", "types.LabeledDataset"):
        s = basic(name)
        out[f"{name}.in_mb"] = s.get("in_mb", 0.0)

    out["cli.self_s"] = get("cli")["self_s"]
    return out


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from labelshift import cli

    tracer = Tracer()
    install(tracer)
    with tracer.span("cli"):
        code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(layer_metrics(tracer), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
