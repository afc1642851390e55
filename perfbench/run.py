"""revgf2 benchmark: oracle-checked workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload div-batch-m8 --seed 1 --seconds 16 --trace 0

The caller is modelled as a closed loop: one thread issues the next call
only after the previous one returned.  With --trace 0 the run times calls
for --seconds (and for at least MIN_TIMED_OPS calls) and prints the
end-to-end metrics; times are scaled to a reference host speed (see
calibrate.py).  With --trace 1 it runs each input of a fixed, seeded list
untraced and then traced, and prints the per-layer metrics, in unscaled
seconds.  Every output is checked against the classical oracle.  The last
line of standard output is one JSON object; the exit code is 0 only when
no check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

from calibrate import speed_factor
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_TIMED_OPS = 1000  # p99 needs at least ten samples beyond it
MAX_TIMED_S = 100.0  # cap on the timed loop when calls are slow
WARMUP_S = 0.5
SLICE_S = 0.002  # a few calls, so the speed factor follows the host's drifts closely
TRACED_WARMUP_FRACTION = 0.1


def import_library():
    """Import revgf2 from this checkout's src/, never from elsewhere."""
    if not (SRC / "revgf2" / "__init__.py").is_file():
        sys.exit(f"error: no revgf2 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import revgf2

    if Path(revgf2.__file__).resolve().parent != SRC / "revgf2":
        sys.exit(f"error: imported revgf2 from {revgf2.__file__}, not {SRC}")


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


class Tally:
    """Inputs attempted, failed and flagged as fidelity loss."""

    def __init__(self):
        self.attempted = self.failed = self.flagged = 0
        self.first_error: str | None = None

    def record(self, wl, fx, x, call):
        """Run `call` (which performs the timed op) and check its output."""
        self.attempted += 1
        try:
            out = call()
            failed, flagged = wl.check(fx, x, out)
        except Exception:
            if self.first_error is None:
                self.first_error = traceback.format_exc()
            failed, flagged = 1, 0
        if failed and self.first_error is None:
            self.first_error = f"{wl.name}: output mismatches the oracle on input {x!r}"
        self.failed += failed
        self.flagged += flagged


def timed_setup(wl) -> tuple[float, object]:
    """Set-up time scaled to the reference host speed, and the fixture."""
    before = speed_factor()
    start = time.perf_counter()
    fx = wl.setup()
    raw = time.perf_counter() - start
    return raw * (before + speed_factor()) / 2, fx


def cold_setup_time(wl) -> float:
    """Set-up time in a fresh interpreter, after the imports."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", wl.name]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end(wl, seed: int, seconds: float, tally: Tally) -> dict:
    first, fx = timed_setup(wl)
    setup_times = [first] + [cold_setup_time(wl) for _ in range(wl.setup_samples - 1)]

    stream = wl.inputs(fx, seed)
    warm_end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_end:
        x = next(stream)
        tally.record(wl, fx, x, lambda: wl.op(fx, x))

    # Time the calls in short slices, each input once.  Each slice's times
    # are scaled by the host speed the reference kernel measures just
    # before and just after it.
    latencies_ms = array("d")
    clock_ns = time.perf_counter_ns
    op = wl.op
    call_ms = array("d")

    def timed(x):
        t0 = clock_ns()
        try:
            return op(fx, x)
        finally:
            call_ms.append((clock_ns() - t0) / 1e6)

    attempted_before = tally.attempted
    measured_s = scaled_s = 0.0
    factor_before = speed_factor()
    while True:
        start = time.perf_counter()
        while time.perf_counter() - start < SLICE_S:
            x = next(stream)
            tally.record(wl, fx, x, lambda: timed(x))
        wall = time.perf_counter() - start
        factor_after = speed_factor()
        factor = (factor_before + factor_after) / 2
        factor_before = factor_after
        measured_s += wall
        scaled_s += wall * factor
        latencies_ms.extend(ms * factor for ms in call_ms)
        del call_ms[:]
        if (measured_s >= seconds and len(latencies_ms) >= MIN_TIMED_OPS) or measured_s >= MAX_TIMED_S:
            break

    # Read before the percentiles: sorting the latencies takes memory in
    # proportion to how many calls the host managed, not to revgf2's needs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": statistics.median(setup_times),
        "inputs_per_s": (tally.attempted - attempted_before) / scaled_s,
        "latency_ms.p50": statistics.median(latencies_ms),
        "latency_ms.p99": statistics.quantiles(latencies_ms, n=100)[98],
        **wl.cost(fx),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(wl, seed: int, tally: Tally) -> tuple[dict, dict]:
    from workloads import LAYER_TARGETS

    setup_tracer = Tracer()
    targets = LAYER_TARGETS + wl.extra_targets
    setup_tracer.install(targets, wl.oracles)
    try:
        fx = wl.setup()
    finally:
        setup_tracer.uninstall()

    stream = wl.inputs(fx, seed)
    xs = [next(stream) for _ in range(wl.traced_ops)]
    for x in xs[: max(1, int(len(xs) * TRACED_WARMUP_FRACTION))]:
        tally.record(wl, fx, x, lambda: wl.op(fx, x))

    # Each input runs untraced, then traced, so that drifts in host speed
    # fall on both sides of the tracing-overhead ratio alike.
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    traced_flagged = 0
    for x in xs:
        start = time.perf_counter()
        tally.record(wl, fx, x, lambda: wl.op(fx, x))
        untraced_s += time.perf_counter() - start
        flagged_before = tally.flagged
        tracer.install(targets, wl.oracles)
        try:
            start = time.perf_counter()
            tally.record(wl, fx, x, lambda: wl.op(fx, x))
            traced_s += time.perf_counter() - start
        finally:
            tracer.uninstall()
        traced_flagged += tally.flagged - flagged_before

    st, s = setup_tracer.summary(), tracer.summary()
    apply_self = s.self_time["circuit.apply"]
    inversions = s.calls["naive.run_naive_inversion"]
    adds = s.calls["ecgroup.simulate_group_add"]
    rounds = tracer.rounds
    oracle_s = sum(s.top_level[name] for _module, _attr, name in wl.oracles)
    add_inversions = s.count_under("optimized.optimized_invert", "ecgroup.simulate_group_add") + s.count_under(
        "naive.run_naive_inversion", "ecgroup.simulate_group_add"
    )
    metrics = {
        "circuit.apply.calls": s.calls["circuit.apply"],
        "circuit.apply.self_s": apply_self,
        "circuit.gate_evals": tracer.gate_evals,
        "circuit.gate_evals_per_s": tracer.gate_evals / apply_self if apply_self else 0.0,
        "circuit.report.s": st.total["circuit.report"],
        "naive.build.s": st.total["naive.build"],
        "naive.iterations_per_invert": (
            s.count_under("circuit.apply", "naive.run_naive_inversion", direct=True) / inversions
            if inversions
            else 0.0
        ),
        "naive.run_naive_inversion.self_s": s.self_time["naive.run_naive_inversion"],
        "optimized.rounds_run": rounds,
        "optimized.useful_round_fraction": (
            (rounds - tracer.rounds_ending_done) / rounds if rounds else 0.0
        ),
        "optimized.run_synchronized.s": s.total["optimized.run_synchronized"],
        "optimized.fidelity_loss_count": traced_flagged,
        "optimized.optimized_invert.calls": s.calls["optimized.optimized_invert"],
        "optimized.optimized_invert.s": s.total["optimized.optimized_invert"],
        "ecgroup.simulate_group_add.self_s": s.self_time["ecgroup.simulate_group_add"],
        "ecgroup.invert_calls_per_add": add_inversions / adds if adds else 0.0,
        "ecgroup.mul_acc_calls_per_add": (
            s.count_under("circuit.apply", "ecgroup.simulate_group_add") / adds if adds else 0.0
        ),
        "ecgroup.generic_points.s": st.total["ecgroup.generic_points"],
        "curve.enumerate_points.s": st.total["curve.enumerate_points"],
        "blocks.build_mul_accumulate.s": st.total["blocks.build_mul_accumulate"],
        "field.setup.s": st.total["field.setup"],
        "field.field_invert.s": s.top_level["field.field_invert"],
        "poly.poly_divmod.s": s.top_level["poly.poly_divmod"],
        "curve.ec_add.s": s.top_level["curve.ec_add"],
        "bench.oracle_fraction": oracle_s / traced_s,
        "bench.tracing_overhead": traced_s / untraced_s - 1,
        "bench.fail_fraction": tally.failed / tally.attempted,
        "bench.fidelity_loss_fraction": tally.flagged / tally.attempted,
        **wl.built_counts(fx),
    }
    spans = {"setup": setup_tracer.spans, "pass": tracer.spans}
    return metrics, spans


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="internal: print one cold set-up time and exit"
    )
    args = parser.parse_args(argv)
    if not args.setup_probe and (args.seed is None or args.seconds is None):
        parser.error("--seed and --seconds are required")
    return args


def main(argv=None) -> int:
    import_library()
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(wl)[0]}))
        return 0

    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    tally = Tally()
    if args.trace:
        metrics, spans = per_layer(wl, args.seed, tally)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        out.write_text(json.dumps(spans))
    else:
        metrics = end_to_end(wl, args.seed, args.seconds, tally)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    if tally.first_error:
        print(tally.first_error, file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
