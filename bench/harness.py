"""One benchmark run of one workload: set-up, warm-up, timed
operations, output checks, and the metrics named in BENCHMARK.json.

A run sets the workload up :data:`SETUP_REPEATS` times and reports the
median set-up, runs the warm-up once, then runs operations until
``seconds`` of measurement have passed. Untraced, it reports the
end-to-end metrics. Traced, it alternates untraced and traced
operations (so ``trace_overhead`` compares like with like) and reports
the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import inspect
import resource
import sys
import traceback

import numpy as np

from cases import Region, Workload, clock
from spans import LAYERS, Patches, Tracer

__all__ = ["SETUP_REPEATS", "END_TO_END", "PER_LAYER", "run_workload"]

SETUP_REPEATS = 3

#: end-to-end metrics: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "sim_gain": ("x", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: per-layer metrics of a traced run: name -> (unit, better). Calls and
#: self seconds are per timed operation; share is self time over the
#: root spans' wall.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{
        f"{layer}.{field}": unit
        for layer in LAYERS
        for field, unit in (
            ("calls", ("count", "lower")),
            ("self_s", ("s", "lower")),
            ("share", ("ratio", "lower")),
        )
    },
    "perfmodel.cache.hit_ratio": ("ratio", "higher"),
    "core.env.memo_hit_ratio": ("ratio", "higher"),
    "core.serving.decision_cache.hit_ratio": ("ratio", "higher"),
    "setup.import_s": ("s", "lower"),
    "setup.train_s": ("s", "lower"),
    "setup.other_s": ("s", "lower"),
    "warmup_s": ("s", "lower"),
    "trace.root_wall_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def _fastest(ops) -> list[float]:
    """Per sample position, the fastest time over the operations, with
    the rest of each operation (outside its samples) as a last position.

    Operations repeat identical work, so position ``i`` times the same
    computation in every operation. Other tenants of a shared host slow
    random stretches of samples by up to 2x; the fastest repetition of
    each sample is the steady estimate of its cost.
    """
    rows = [op.samples_s + [op.wall_s - sum(op.samples_s)] for op in ops]
    return [min(column) for column in zip(*rows)]


def _ratio(pairs) -> float:
    pairs = list(pairs)
    hits = sum(h for h, _ in pairs)
    lookups = sum(n for _, n in pairs)
    return hits / lookups if lookups else 0.0


def run_workload(
    workload: Workload,
    seconds: float,
    trace: bool = False,
    import_s: float = 0.0,
    spans_path=None,
) -> dict:
    """Run ``workload`` once and return its result document."""
    name = workload.name
    setups = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        train_s = workload.setup()
        setups.append((clock() - start, train_s))
    setup_total, setup_train = sorted(setups)[len(setups) // 2]

    attempted = failed = 0

    def attempt(fn, *args):
        nonlocal attempted, failed
        try:
            result = fn(*args)
        except Exception:
            print(f"[{name}] operation failed:", file=sys.stderr)
            traceback.print_exc()
            attempted += 1
            failed += 1
            return None
        if result is not None:
            attempted += result.items + result.failed
            failed += result.failed
        return result

    start = clock()
    warm = attempt(workload.warm)
    warmup_s = clock() - start

    tracer = Tracer() if trace else None
    patches = Patches(tracer) if trace else None
    plain, traced = [], []
    start = clock()
    while True:
        use_trace = trace and len(traced) < len(plain)
        result = attempt(workload.op, Region(patches if use_trace else None))
        if result is not None:
            (traced if use_trace else plain).append(result)
        done = plain and (traced or not trace)
        if clock() - start >= seconds and (done or failed):
            break
    sim_gain = workload.quality() if not trace else None

    ops = plain + traced
    compared = ops + ([warm] if warm is not None and workload.warm_matches_op else [])
    checks = {
        "operations_completed": bool(plain) and (bool(traced) or not trace),
        "no_failed_operations": failed == 0,
        "same_digest_every_operation": len({op.digest for op in compared}) == 1,
    }
    for op in ops + ([warm] if warm is not None else []):
        for key, ok in op.checks.items():
            checks[key] = checks.get(key, True) and ok

    metrics: dict[str, float] = {}
    details = {
        "item": workload.item,
        "sample": workload.sample,
        "sizes": {
            p: getattr(workload, p) for p in inspect.signature(type(workload)).parameters
        },
        "operations": len(plain),
        "op_wall_s": [op.wall_s for op in plain],
        "op_samples_s": [op.samples_s for op in plain],
        "setup_total_s": [total for total, _ in setups],
        "warmup_s": warmup_s,
        "digest": plain[0].digest if plain else None,
        "notes": dict(workload.notes),
    }
    checks["same_samples_every_operation"] = (
        len({(op.items, len(op.samples_s)) for op in ops}) == 1
    )
    if not trace:
        best = _fastest(plain)
        samples = best[:-1]
        p50, p90 = np.percentile(samples, [50, 90]) * 1e3 if samples else (0.0, 0.0)
        metrics = {
            "throughput_per_s": plain[0].items / sum(best) if plain else 0.0,
            "latency_p50_ms": float(p50),
            "latency_p90_ms": float(p90),
            "sim_gain": sim_gain,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_s + setup_total,
        }
        details["latency_samples"] = len(samples)
    else:
        n = len(traced)
        root = tracer.root_s / n if n else 0.0
        layers = {}
        for layer in LAYERS:
            self_s = tracer.self_s.get(layer, 0.0) / n if n else 0.0
            layers[layer] = {
                "calls": tracer.calls.get(layer, 0) / n if n else 0.0,
                "self_s": self_s,
                "share": self_s / root if root else 0.0,
            }
            for field, value in layers[layer].items():
                metrics[f"{layer}.{field}"] = value
        memos = [(m.stats.hits, m.stats.lookups) for m in tracer.memos.values()]
        metrics.update({
            "perfmodel.cache.hit_ratio": _ratio(op.corun for op in traced),
            "core.env.memo_hit_ratio": _ratio(memos),
            "core.serving.decision_cache.hit_ratio": _ratio(op.decisions for op in traced),
            "setup.import_s": import_s,
            "setup.train_s": setup_train,
            "setup.other_s": setup_total - setup_train,
            "warmup_s": warmup_s,
            "trace.root_wall_s": root,
            "trace_overhead": (
                min(op.wall_s for op in traced) / min(op.wall_s for op in plain)
                if n else 0.0
            ),
        })
        # the traced layers must cover the timed wall: time spent outside
        # every root span (a workload's own loop) would be missing from
        # the layer table
        timed_s = sum(op.wall_s for op in traced)
        checks["root_spans_cover_timed_wall"] = (
            abs(tracer.root_s - timed_s) <= 0.01 * timed_s
        )
        checks["patched_functions_restored"] = patches.restored()
        if workload.required_layer:
            checks[f"{workload.required_layer}_called"] = (
                tracer.calls.get(workload.required_layer, 0) > 0
            )
        details["traced_operations"] = n
        details["timed_wall_s"] = timed_s / n if n else 0.0
        details["layers"] = layers
        if spans_path is not None:
            tracer.write_spans(spans_path)
            details["spans"] = str(spans_path)

    table = END_TO_END if not trace else PER_LAYER
    return {
        "workload": name,
        "trace": trace,
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": table[k][0]} for k in table},
        "checks": checks,
        "details": details,
    }
