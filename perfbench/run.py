"""playnet benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload compare-fixed --seed 1 --seconds 30 --trace 0

One client in one process sends a request, waits for it, checks its
outputs, then sends the next (a closed loop; playnet runs with its
default of one thread). With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it first measures untraced for half the time,
then traced for the other half, and reports the per-layer metrics. The
last line of stdout is the result as one JSON object; the lines before it
repeat the metrics with their sample counts and the run environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 5
WARMUP_REQUESTS = 2
PIN_SEED = 0
PIN_REQUESTS = 6
# traced requests use their own indices, so no input repeats one timed untraced
TRACE_BASE = 1 << 20
# counts in the traced run cover exactly this many requests, so they repeat for a seed
FIXED_TRACED = {"compare-fixed": 12, "random-states": 20, "log-roundtrip": 18}
IDENTITY_REQUESTS = 2

# A host shared with other tenants can drift in speed by a half within a
# minute, and every timing drifts with it. So right before
# and right after each request the benchmark times a fixed piece of
# pure-Python reference work. A request's wall time is scaled by
# REFERENCE_MS over the mean of those two reference times: the end-to-end
# timings read as at one fixed host speed, at which the reference work
# takes REFERENCE_MS.
REFERENCE_MS = 1.0
REFERENCE_LOOPS = 18


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass(frozen=True)
class _Edge:
    p: float
    r: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, float) or not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p!r}")


_POINTS = [((i * 37.7) % 105.0, (i * 53.3) % 68.0) for i in range(22)]


def _reference_work(loops: int) -> float:
    """Work shaped like playnet's own: distances, exp, validated frozen
    dataclasses, a dict per holder and a keyed sort. It tracks the host's
    speed as playnet feels it more closely than plain arithmetic does."""
    total = 0.0
    opponents = _POINTS[11:]
    for k in range(loops):
        hx, hy = _POINTS[k % 11]
        edges = {}
        for j in range(11):
            tx, ty = _POINTS[j]
            d = math.hypot(tx - hx, ty - hy)
            marker = min(math.hypot(ox - tx, oy - ty) for ox, oy in opponents)
            edges[j] = _Edge(math.exp(-d / 30.0), int(marker) % 11)
        ranked = sorted(edges.items(), key=lambda item: (-item[1].p, item[0]))
        total += ranked[0][1].p
    return total


def reference_ms() -> float:
    """Wall time of the reference work, with no garbage collection inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _reference_work(REFERENCE_LOOPS)
        return (time.perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()


class Window:
    """Outcome of a stretch of closed-loop requests."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.reference_ms: list[float] = []
        self.possessions = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.requests: dict = {}
        self.outputs: dict = {}

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    def speeds(self) -> list[float]:
        """Per request, the factor that scales its times to the reference host speed."""
        return [REFERENCE_MS / ref for ref in self.reference_ms]

    def scaled_ms(self) -> list[float]:
        """Request latencies at the reference host speed."""
        return [lat / 1e6 * speed for lat, speed in zip(self.latencies_ns, self.speeds())]

    def possessions_per_s(self) -> float:
        return self.possessions / (sum(self.scaled_ms()) / 1e3)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def absorb(self, other: Window) -> None:
        """Count another window's requests as attempted (and failed) here."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[:5 - len(self.errors)]


def run_requests(wl, seed: int, indices, window: Window, seconds: float = 0.0,
                 min_requests: int = 0, tracer=None, keep_outputs: int = 0) -> Window:
    """Send requests one after another until the indices run out or, with
    seconds > 0, until that much time has passed and min_requests are done.

    Only the call into playnet is timed; preparing inputs and checking
    outputs happen between requests.
    """
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    for n, index in enumerate(indices):
        if seconds > 0 and n >= min_requests and time.perf_counter() >= deadline:
            break
        req = wl.prepare(seed, index)
        rid = index - indices.start
        window.attempted += 1
        before = reference_ms()
        t0 = clock()
        try:
            out = wl.run(req) if tracer is None else tracer.call_request(rid, wl.run, req)
            error = None
        except Exception as exc:  # a crashing request is a failed request
            out, error = None, f"{type(exc).__name__}: {exc}"
        window.latencies_ns.append(clock() - t0)
        window.reference_ms.append((before + reference_ms()) / 2)
        if error is None:
            try:
                error = wl.check(req, out)
            except Exception as exc:  # a malformed output is a failed check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            window.fail(f"request {index}: {error}")
            continue
        window.possessions += req.possessions
        window.requests[rid] = req.info()
        if n < keep_outputs:
            window.outputs[rid] = wl.output_bytes(req, out)
    return window


def setup(workload: str, tmp: str):
    """Import playnet afresh, build the workload and warm it up."""
    import workloads

    workloads.purge_playnet()
    pn = workloads.Playnet()
    wl = workloads.WORKLOADS[workload](pn, tmp)
    warm = run_requests(wl, PIN_SEED, range(TRACE_BASE * 2, TRACE_BASE * 2 + WARMUP_REQUESTS), Window())
    return wl, warm


def pinned_digest(wl) -> tuple[str, Window]:
    window = run_requests(wl, PIN_SEED, range(PIN_REQUESTS), Window(), keep_outputs=PIN_REQUESTS)
    h = hashlib.sha256()
    for rid in sorted(window.outputs):
        h.update(window.outputs[rid])
    return h.hexdigest(), window


def final_checks(wl, tmp: str, window: Window) -> None:
    """Once per run, untimed: pinned digest of the default seed, and regenerate."""
    import workloads

    pins = json.loads((HERE / "pins.json").read_text())
    digest, pinned = pinned_digest(wl)
    window.absorb(pinned)
    if pinned.failed == 0 and digest != pins["sha256"][wl.name]:
        window.fail(f"pinned outputs of seed {PIN_SEED}: sha256 {digest}, "
                    f"expected {pins['sha256'][wl.name]}")
    window.attempted += 1
    try:
        error = workloads.regenerate_check(wl.pn, tmp)
    except Exception as exc:
        error = f"regenerate raised {type(exc).__name__}: {exc}"
    if error:
        window.fail(error)


def end_to_end(window: Window, setup_s: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics: value, unit and a note with sample counts."""
    n = len(window.latencies_ns)
    scaled = window.scaled_ms()
    raw_ms = [lat / 1e6 for lat in window.latencies_ns]
    speed = REFERENCE_MS / statistics.median(window.reference_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = 1.0 - window.failed / window.attempted
    metrics = {
        "possessions_per_s": (window.possessions_per_s(), "1/s",
                              f"{window.possessions} possessions; raw {window.possessions / window.busy_s:.6g}"),
        "request_ms_p50": (statistics.median(scaled), "ms",
                           f"n={n} requests; raw {statistics.median(raw_ms):.6g}"),
        "request_ms_p90": (statistics.quantiles(scaled, n=10)[8], "ms",
                           f"n={n} requests, {n // 10} beyond it; raw {statistics.quantiles(raw_ms, n=10)[8]:.6g}"),
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
        "ok_frac": (ok, "frac", f"failed_frac={1.0 - ok:.6g}: {window.failed} of {window.attempted} requests failed"),
    }
    lines = [f"host speed {speed:.4g} of the reference (timings below are scaled to it)"]
    lines += [f"{k:<28}{v:>14.6g} {u:<6} ({note})" for k, (v, u, note) in metrics.items()]
    return metrics, lines


def traced(wl, seed: int, seconds: float, window: Window) -> tuple[dict, list[str], object]:
    import tracing
    import workloads

    half = seconds / 2.0
    untraced = run_requests(wl, seed, range(0, 1 << 30), Window(), seconds=half)
    fixed = FIXED_TRACED[wl.name]
    with tracing.Tracer() as tracer:
        run_requests(wl, seed, range(TRACE_BASE, 1 << 30), window, seconds=half,
                     min_requests=fixed, tracer=tracer, keep_outputs=IDENTITY_REQUESTS)
    window.absorb(untraced)
    # tracing must not change a single output byte
    again = run_requests(wl, seed, range(TRACE_BASE, TRACE_BASE + IDENTITY_REQUESTS), Window(),
                         keep_outputs=IDENTITY_REQUESTS)
    window.absorb(again)
    if again.outputs != window.outputs:
        window.fail("traced outputs differ from untraced outputs")
    metrics = tracing.per_layer_metrics(tracer, window.requests, window.speeds(), fixed,
                                        workloads.STATES, workloads.STYLES)
    traced_pps, untraced_pps = window.possessions_per_s(), untraced.possessions_per_s()
    metrics["trace.overhead_frac"] = 1.0 - traced_pps / untraced_pps
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    lines = [f"{len(tracer)} spans, {tracer.patched} functions patched; untraced {untraced_pps:.6g} "
             f"possessions/s, traced {traced_pps:.6g}"]
    lines += [f"{k:<58}{v:>14.6g} {units[k]}" for k, v in metrics.items()]
    return {k: (v, units[k]) for k, v in metrics.items()}, lines, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("compare-fixed", "random-states", "log-roundtrip"))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "playnet" / "__init__.py").is_file():
        print(f"error: no playnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            before = reference_ms()
            t0 = time.perf_counter()
            wl, warm = setup(args.workload, tmp)
            elapsed = time.perf_counter() - t0
            setup_s.append(elapsed * REFERENCE_MS / ((before + reference_ms()) / 2))
        window = Window()
        window.absorb(warm)
        if args.trace:
            metrics, lines, tracer = traced(wl, args.seed, args.seconds, window)
        else:
            run_requests(wl, args.seed, range(0, 1 << 30), window, seconds=args.seconds)
        final_checks(wl, tmp, window)
        if not args.trace:
            full, lines = end_to_end(window, setup_s)
            metrics = {k: (v, u) for k, (v, u, _) in full.items()}
    env = {"git_revision": git_revision(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    result = {
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.json", OUT / f"{stem}.spans.bin", window.requests)
    timings = {"latency_ms": [lat / 1e6 for lat in window.latencies_ns],
               "reference_ms": window.reference_ms, "setup_s": setup_s}
    (OUT / f"{stem}.result.json").write_text(
        json.dumps({"environment": env, **result, "timings": timings}, indent=1))
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    for error in window.errors:
        print(f"FAILED {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
