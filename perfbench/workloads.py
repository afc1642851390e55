"""The four benchmark workloads: set-up, seeded inputs, the timed call and
its oracle check, and the circuit cost each one reports.

Every workload calls revgf2's public functions through their module
attributes (circuit.apply, not a local alias), so the traced run can
rebind them.  Set-up does not depend on the seed; the seed only picks
the inputs.
"""

from __future__ import annotations

import random

from revgf2 import blocks, circuit, curve, ecgroup, field, naive, optimized, poly

# Functions whose time the traced run attributes to a layer.  The oracle
# of each workload is listed on the workload itself.
LAYER_TARGETS = [
    (circuit, "apply", "circuit.apply"),
    (circuit, "report", "circuit.report"),
    (field, "default_field", "field.setup"),
    (naive, "build_naive_long_division", "naive.build"),
    (naive, "build_euclid_iteration", "naive.build"),
    (naive, "run_naive_inversion", "naive.run_naive_inversion"),
    (optimized, "run_synchronized", "optimized.run_synchronized"),
    (optimized, "optimized_invert", "optimized.optimized_invert"),
    (blocks, "build_mul_accumulate", "blocks.build_mul_accumulate"),
    (curve, "enumerate_points", "curve.enumerate_points"),
    (ecgroup, "generic_points", "ecgroup.generic_points"),
    (ecgroup, "simulate_group_add", "ecgroup.simulate_group_add"),
]


def toffoli_equiv(report: circuit.ResourceReport) -> int:
    """Toffoli-equivalent count of a circuit's multi-controlled NOTs.

    A k-controlled NOT with k >= 2 costs 2k - 3 Toffolis with k - 2 borrowed
    ancillas (Barenco et al., Elementary gates for quantum computation,
    1995); NOTs, CNOTs and SWAPs cost none.
    """
    return sum(count * (2 * k - 3) for k, count in report.control_arity.items() if k >= 2)


def gate_list_cost(report: circuit.ResourceReport) -> dict[str, int]:
    return {
        "cost.gates": report.total_gates,
        "cost.depth": report.depth,
        "cost.width": report.width,
        "cost.toffoli_equiv": toffoli_equiv(report),
    }


class Workload:
    """One set of inputs and the call the benchmark times on each."""

    name: str
    m: int
    oracles: list  # (module, attribute, span name) of the oracle it calls
    extra_targets: list = []  # layer targets traced on this workload only
    setup_samples = 9  # cold set-ups per run; setup_s is their median
    traced_ops = 0  # fixed input count of each pass of the traced run

    def setup(self):
        """Build everything the timed calls need; returns the fixture."""
        raise NotImplementedError

    def cost(self, fx) -> dict[str, int]:
        raise NotImplementedError

    def built_counts(self, fx) -> dict[str, int]:
        """Per-layer counts read from what set-up built, not from a trace."""
        return {"optimized.halting_width": 0, "blocks.mulacc.gates": 0}

    def inputs(self, fx, seed: int):
        """Endless seeded stream of inputs, one per timed call."""
        raise NotImplementedError

    def op(self, fx, x):
        """The timed call into revgf2."""
        raise NotImplementedError

    def check(self, fx, x, out) -> tuple[int, int]:
        """Compare one call's output with the oracle.

        Returns (failed, fidelity_loss), each 0 or 1: whether the output
        mismatches the oracle, and whether the machine flagged the input
        as quotient overflow.  A flagged input is not counted as failed.
        """
        raise NotImplementedError


class DivBatchM8(Workload):
    """A seeded sweep of (divisor, dividend) pairs through the m = 8 long
    division, one single-state circuit.apply per pair, as `revgf2 verify
    naive-div` runs its sweeps."""

    name = "div-batch-m8"
    m = 8
    oracles = [(poly, "poly_divmod", "poly.poly_divmod")]
    traced_ops = 8000

    def setup(self):
        field.default_field(self.m)
        division = naive.build_naive_long_division(self.m)
        return {"circuit": division, "report": circuit.report(division)}

    def cost(self, fx):
        return gate_list_cost(fx["report"])

    def inputs(self, fx, seed):
        rng = random.Random(seed)
        while True:
            yield rng.randrange(1, 1 << self.m), rng.randrange(0, 1 << (self.m + 1))

    def op(self, fx, x):
        division = fx["circuit"]
        a, b = x
        return circuit.apply(division, circuit.BasisState.from_values(division.layout, a=a, b=b))

    def check(self, fx, x, out):
        a, b = x
        q, r = poly.poly_divmod(b, a)
        ok = (
            out.get_reg("a") == a
            and out.get_reg("b") == r
            and out.get_reg("q") == q
            and not any(out.get_reg(s) for s in ("s", "anc", "flg"))
        )
        return int(not ok), 0


class InvertNaiveM16(Workload):
    """One inversion at a time, stepping the m = 16 Euclid iteration circuit."""

    name = "invert-naive-m16"
    m = 16
    oracles = [(field, "field_invert", "field.field_invert")]
    traced_ops = 150

    def setup(self):
        spec = field.default_field(self.m)
        iteration = naive.build_euclid_iteration(self.m)
        return {"field": spec, "report": circuit.report(iteration)}

    def cost(self, fx):
        return gate_list_cost(fx["report"])

    def inputs(self, fx, seed):
        rng = random.Random(seed)
        while True:
            yield rng.randrange(1, 1 << self.m)

    def op(self, fx, x):
        return naive.run_naive_inversion(x, fx["field"])

    def check(self, fx, x, out):
        return int(out != field.field_invert(x, fx["field"])), 0


class SyncBatchM16(Workload):
    """A seeded sweep of nonzero elements through the synchronized machine
    at m = 16, one element per run_synchronized call."""

    name = "sync-batch-m16"
    m = 16
    oracles = [(field, "field_invert", "field.field_invert")]
    traced_ops = 1000

    def setup(self):
        spec = field.default_field(self.m)
        cycles = optimized.default_cycles(self.m)
        H = optimized.halting_counter_width(self.m, cycles)
        width = sum(optimized.machine_layout(self.m, H).values())
        if width != optimized.qubit_budget(self.m, H):
            raise RuntimeError(f"layout width {width} disagrees with the qubit budget")
        return {"field": spec, "cycles": cycles, "H": H, "width": width}

    def cost(self, fx):
        # The machine has no gate list.  Until it has one, gates, depth and
        # Toffolis all count its scheduled steps, which run in sequence:
        # per round, each operation slot and the advance-counter step after
        # it, then the halting-counter tick.
        steps = (2 * len(optimized.OP_NAMES) + 1) * fx["cycles"]
        return {
            "cost.gates": steps,
            "cost.depth": steps,
            "cost.width": fx["width"],
            "cost.toffoli_equiv": steps,
        }

    def built_counts(self, fx):
        return {"optimized.halting_width": fx["H"], "blocks.mulacc.gates": 0}

    def inputs(self, fx, seed):
        rng = random.Random(seed)
        while True:
            yield rng.randrange(1, 1 << self.m)

    def op(self, fx, x):
        return optimized.run_synchronized([x], fx["field"], fx["cycles"])

    def check(self, fx, x, out):
        trace = out.get(x)
        if trace is not None and trace.quotient_overflow:
            return 0, 1
        return int(trace is None or trace.inverse != field.field_invert(x, fx["field"])), 0


# Fixed curves over default_field(8) (modulus z^8 + z^4 + z^3 + z + 1), one
# of each kind, with a fixed point on each; FixedPointParams checks it.
EC_CURVES = [
    (curve.CurveKind.NON_SUPERSINGULAR, {"a": 0b1, "b": 0b1011}, (96, 221)),
    (curve.CurveKind.SUPERSINGULAR, {"a": 0b1, "b": 0b110, "c": 0b1}, (81, 94)),
]


class EcAddM8(Workload):
    """Generic-case group adds on both curve kinds with the opt backend."""

    name = "ec-add-m8"
    m = 8
    oracles = [(curve, "ec_add", "curve.ec_add")]
    # optimized_invert returns no trace, so rounds are counted per call
    extra_targets = [(optimized, "run_round", "optimized.run_round")]
    setup_samples = 5  # each cold set-up scans 4^m points twice
    traced_ops = 2000

    def setup(self):
        spec = field.default_field(self.m)
        cases = []
        for kind, constants, (alpha, beta) in EC_CURVES:
            params = ecgroup.FixedPointParams(curve.CurveSpec(spec, kind, **constants), alpha, beta)
            cases.append((params, ecgroup.generic_points(params)))
        ecgroup.build_division_with_uncompute(spec, "opt")
        multiplier = circuit.report(blocks.build_mul_accumulate(spec))
        return {
            "cases": cases,
            "multiplier": multiplier,
            "width": ecgroup.group_op_width(spec, "opt")["total"],
        }

    def cost(self, fx):
        # Gates, depth and Toffolis of the multiplier, the group add's only
        # gate-level block; the width is the audited group-operation width.
        cost = gate_list_cost(fx["multiplier"])
        cost["cost.width"] = fx["width"]
        return cost

    def built_counts(self, fx):
        return {
            "optimized.halting_width": optimized.halting_counter_width(self.m),
            "blocks.mulacc.gates": fx["multiplier"].total_gates,
        }

    def inputs(self, fx, seed):
        rng = random.Random(seed)
        while True:
            for params, points in fx["cases"]:  # interleave the curve kinds
                yield params, rng.choice(points)

    def op(self, fx, x):
        params, point = x
        return ecgroup.simulate_group_add(point, params, "opt")

    def check(self, fx, x, out):
        params, point = x
        fixed = curve.CurvePoint(params.alpha, params.beta)
        return int(out != curve.ec_add(point, fixed, params.curve)), 0


WORKLOADS = {wl.name: wl for wl in (DivBatchM8(), InvertNaiveM16(), SyncBatchM16(), EcAddM8())}
