import copy
import dataclasses
import dis
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import takewhile
from pathlib import Path

import pytest

from revgf2 import blocks, circuit
from revgf2.blocks import build_controlled_shift, build_cyclic_shift, controlled_rotation_stage
from revgf2.circuit import (
    CNOT,
    NOT,
    SWAP,
    Circuit,
    Gate,
    ResourceReport,
    cnot,
    gate_not,
    lane_values,
    pack_lanes,
    pipeline,
    report,
    run_lanes,
    run_one,
    swap,
    sweep,
)
from revgf2.ecgroup import build_division_with_uncompute
from revgf2.errors import LayoutMismatch, WidthTooLarge
from revgf2.field import FieldSpec, field_invert
from revgf2.naive import build_euclid_iteration, build_naive_long_division, run_naive_inversion


def toy_circuit():
    return Circuit({"a": 2, "b": 1}, [
        gate_not(("a", 0)),
        cnot([(("a", 0), 1)], ("b", 0)),
        cnot([(("a", 0), 1), (("a", 1), 0)], ("b", 0)),
        swap(("a", 0), ("a", 1)),
    ])


def test_gate_validation():
    with pytest.raises(ValueError):
        cnot([(("a", 0), 1)], ("a", 0))  # control equals target
    with pytest.raises(ValueError):
        swap(("a", 0), ("a", 0))
    with pytest.raises(ValueError):
        Gate(SWAP, controls=((("a", 2), 1),), targets=(("a", 0), ("a", 1)))
    with pytest.raises(ValueError, match="NOT takes one target and no controls"):
        Gate(NOT, controls=((("a", 1), 1),), targets=(("a", 0),))
    with pytest.raises(ValueError, match="CNOT takes one target and at least one control"):
        Gate(CNOT, targets=(("a", 0),))
    # report() and the kernel tell the three kinds apart by their shape alone
    with pytest.raises(ValueError, match="a gate is NOT, CNOT or SWAP, not 'TOFFOLI'"):
        Gate("TOFFOLI", controls=((("a", 1), 1), (("a", 2), 1)), targets=(("a", 0),))


def test_layout_checked_on_construction():
    for reg, idx in (("b", 0), ("a", 5), ("a", -1)):
        with pytest.raises(LayoutMismatch):
            Circuit({"a": 2}, [gate_not(("a", 0)), cnot([(("a", 1), 1)], (reg, idx))])
    with pytest.raises(LayoutMismatch, match=r"restored registers \['nope'\] not in layout"):
        Circuit({"a": 2}, [gate_not(("a", 0))], ("nope",))


def test_the_first_wire_outside_the_layout_in_gate_order_is_named():
    # several offenders, so a set's order, which PYTHONHASHSEED changes, would name another
    code = (
        "from revgf2.circuit import Circuit, cnot, gate_not\n"
        "gates = [gate_not(('a', 0)), cnot([(('zz', 3), 1)], ('a', 1))]\n"
        "gates += [cnot([(('a', 0), 1)], (name, k)) for name in ('b', 'c', 'd') for k in range(4)]\n"
        "try:\n"
        "    Circuit({'a': 2}, gates)\n"
        "except Exception as e:\n"
        "    print(type(e).__name__, e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    for seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
                              capture_output=True, text=True, timeout=60)
        assert done.stdout == "LayoutMismatch wire zz[3] not in layout\n", done.stderr


def test_gates_are_tuples_over_shared_wires():
    g = cnot([(("a", 0), 0), (("a", 1), 1)], ("b", 0))
    assert g == (CNOT, ((("a", 0), 0), (("a", 1), 1)), (("b", 0),)) and isinstance(g, tuple)
    assert (g.kind, g.controls, g.targets) == tuple(g) and list(g.wires()) == [("a", 0), ("a", 1), ("b", 0)]
    assert Gate(*g) == g and repr(g).startswith("Gate(")
    assert copy.deepcopy(g) == g and type(copy.copy(g)) is Gate
    with pytest.raises(AttributeError):
        g.kind = NOT
    # one object per distinct wire, (wire, polarity) pair and one-wire target tuple
    again = [cnot([(("a", 1), 1)], ("b", 0)), gate_not(("b", 0)), swap(("b", 0), ("a", 0))]
    assert again[0].controls[0] is g.controls[1] and again[0].targets is again[1].targets is g.targets
    assert again[2].targets[0] is g.targets[0]
    with pytest.raises(TypeError, match="Gate values only"):
        Circuit({"a": 1}, [(NOT, (), (("a", 0),))])


def test_gates_take_little_memory():
    # a frozen dataclass over fresh wire tuples held about 340 B per gate at
    # m = 163; tuples over shared wires hold about 125
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        iteration = build_euclid_iteration.__wrapped__(40)  # not the cached one
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 160 * len(iteration.gates)


def test_cached_circuits_are_values():
    # every caller gets the same cached circuit, so none may change it
    field = FieldSpec(4, 0b10011)
    for c in (build_euclid_iteration(4), build_division_with_uncompute(field, "opt").multiplier):
        assert isinstance(c.gates, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.gates = ()
        with pytest.raises(TypeError):
            c.add(gate_not(("q", 0)))
    assert not hasattr(Circuit, "extend")
    inputs = field.nonzero_elements()
    assert [run_naive_inversion(x, field) for x in inputs] == [field_invert(x, field) for x in inputs]


def test_only_a_circuit_made_empty_grows_before_its_first_run():
    grown = Circuit({"a": 2, "b": 1})
    for g in toy_circuit().gates:
        grown.add(g)
    assert grown == toy_circuit()
    with pytest.raises(LayoutMismatch):
        grown.add(gate_not(("c", 0)))
    assert grown == toy_circuit()
    assert run_one(grown, 0, 0) == (2, 0)
    with pytest.raises(TypeError):
        grown.add(gate_not(("a", 0)))  # its kernel is generated
    with pytest.raises(TypeError):
        toy_circuit().add(gate_not(("a", 0)))


def test_a_circuit_keeps_its_own_layout():
    layout = {"a": 2, "b": 1}
    c = Circuit(layout, toy_circuit().gates)
    before = report(c)
    layout["a"] = 5
    assert c.layout == {"a": 2, "b": 1} and c.width == 3 and report(c) == before
    with pytest.raises(TypeError):
        c.layout["a"] = 5  # read-only
    assert Circuit(c.layout, c.gates) == c


def test_apply_polarity():
    c = Circuit({"a": 1, "b": 1}, [cnot([(("a", 0), 0)], ("b", 0))])  # fires on |0>
    assert run_one(c, 0, 0) == (0, 1)
    assert run_one(c, 1, 0) == (1, 0)


def random_gates(rng, wires, count, max_controls=3):
    for _ in range(count):
        kind = rng.choice(("NOT", "SWAP", "CNOT"))
        if kind == "NOT":
            yield gate_not(rng.choice(wires))
        elif kind == "SWAP":
            yield swap(*rng.sample(wires, 2))
        else:
            target, *controls = rng.sample(wires, rng.randint(2, min(max_controls + 1, len(wires))))
            yield cnot([(w, rng.randint(0, 1)) for w in controls], target)


def random_circuit(rng, layout):
    wires = [(name, i) for name, width in layout.items() for i in range(width)]
    return Circuit(layout, list(random_gates(rng, wires, 40)))


def reference_run(c, values):
    """Gate by gate from the gate definitions, over a dict of bits: a NOT or
    CNOT flips its target when every control equals its polarity, a SWAP
    exchanges two bits.  Registers missing from `values` start at 0."""
    bit = {(name, i): values.get(name, 0) >> i & 1 for name, width in c.layout.items() for i in range(width)}
    for g in c.gates:
        if g.kind == SWAP:
            u, v = g.targets
            bit[u], bit[v] = bit[v], bit[u]
        elif all(bit[w] == pol for w, pol in g.controls):
            bit[g.targets[0]] ^= 1
    return {name: sum(bit[name, i] << i for i in range(width)) for name, width in c.layout.items()}


def lane_outputs(c, run):
    """Each lane's output value of every register, lane 0 first."""
    return [dict(zip(c.layout, lane)) for lane in zip(*map(run.values, c.layout))]


def check_against_reference(c, registers, rng, lanes=20):
    """The three run entries against `reference_run`: every lane of a sweep
    over `registers`, then run_lanes and run_one on `lanes` inputs or more,
    which cycle through the swept values with the other registers drawn at
    random."""
    run = sweep(c, registers)
    swept = []
    for j in range(run.lanes):
        values, rest = {}, j
        for name in registers:
            values[name], rest = rest % (1 << c.layout[name]), rest >> c.layout[name]
        swept.append(values)
    assert lane_outputs(c, run) == [reference_run(c, values) for values in swept]
    inputs = [
        {name: rng.getrandbits(width) for name, width in c.layout.items()} | swept[j % run.lanes]
        for j in range(max(lanes, run.lanes))
    ]
    want = [reference_run(c, values) for values in inputs]
    assert lane_outputs(c, run_lanes(c, {name: [v[name] for v in inputs] for name in c.layout})) == want
    assert [dict(zip(c.layout, run_one(c, *(v[name] for name in c.layout)))) for v in inputs] == want


def test_every_lane_matches_a_one_lane_run():
    rng = random.Random(7)
    for _ in range(20):
        layout = {"x": rng.randint(1, 3), "y": rng.randint(1, 2), "z": rng.randint(1, 3)}
        check_against_reference(random_circuit(rng, layout), ("x", "z"), rng)  # at most 8 wires


@pytest.mark.parametrize("lanes", [0, 1, 2, 37])
@pytest.mark.parametrize("width", [0, 1, 5, 9, 17])  # 9 and 17 wires span two and three bytes per lane
def test_lane_packing_round_trip(lanes, width):
    rng = random.Random(lanes * 8 + width)
    values = [rng.getrandbits(width) if width else 0 for _ in range(lanes)]
    wires = pack_lanes(values, width)
    assert len(wires) == width
    assert all(0 <= w < 1 << lanes for w in wires)
    assert list(lane_values(wires, lanes)) == values


def test_lane_packing_of_a_constant_column():
    # every lane alike: each wire is 0 or the all-lanes mask, packed without a transpose
    assert pack_lanes([0b101] * 37, 3) == [(1 << 37) - 1, 0, (1 << 37) - 1]
    assert pack_lanes([0] * 4, 2) == [0, 0]
    assert list(lane_values(pack_lanes([0b10011] * 9, 5), 9)) == [0b10011] * 9


def test_lane_packing_rejects_values_that_do_not_fit():
    for bad in ([0, 8], [-1], [8] * 3, [-1] * 2):
        with pytest.raises(ValueError):
            pack_lanes(bad, 3)


def reference_report(c):
    """Gate by gate from the definitions: each gate takes the layer after the
    latest gate on any of its wires, and a Toffoli layer after the latest
    such one, plus one only for a CNOT with two or more controls."""
    counts, arity, layer, toffoli_layer = Counter(), Counter(), {}, {}
    for g in c.gates:
        counts[g.kind] += 1
        if g.kind == CNOT:
            arity[len(g.controls)] += 1
        wires = [w for w, _ in g.controls] + list(g.targets)
        at = 1 + max(layer.get(w, 0) for w in wires)
        toffoli_at = (len(g.controls) >= 2) + max(toffoli_layer.get(w, 0) for w in wires)
        for w in wires:
            layer[w], toffoli_layer[w] = at, toffoli_at
    return ResourceReport(c.width, dict(counts), dict(arity), max(layer.values(), default=0),
                          max(toffoli_layer.values(), default=0))


def test_report_matches_a_gate_by_gate_reference():
    for empty in (Circuit({}), Circuit({"a": 3})):
        assert report(empty) == reference_report(empty) == ResourceReport(empty.width, {}, {}, 0, 0)
    rng = random.Random(36)
    arities = Counter()
    for _ in range(300):
        layout = {"x": rng.randint(1, 4), "y": rng.randint(1, 3), "z": rng.randint(1, 4)}
        wires = [(name, i) for name, width in layout.items() for i in range(width)]
        # SWAPs, NOTs and CNOTs with up to 5 controls of either polarity
        c = Circuit(layout, list(random_gates(rng, wires, rng.randint(1, 60), max_controls=5)))
        rep = report(c)
        assert rep == reference_report(c)
        arities.update(rep.control_arity)
    assert set(arities) == {1, 2, 3, 4, 5}


def test_pipeline_moves_gates_only_past_gates_they_commute_with():
    rng = random.Random(32)
    for _ in range(300):
        layout = {"x": rng.randint(1, 3), "y": rng.randint(1, 2), "z": rng.randint(1, 3)}
        wires = [(name, i) for name, width in layout.items() for i in range(width)]
        # few wires and one- or two-controlled gates, so many gates share a target or a control
        c = Circuit(layout, list(random_gates(rng, wires, rng.randint(1, 40), max_controls=2)))
        gates = pipeline(c.gates)
        assert Counter(gates) == Counter(c.gates)
        assert pipeline(list(c.gates)) == gates
        piped = Circuit(layout, gates)
        assert lane_outputs(piped, sweep(piped, tuple(layout))) == lane_outputs(c, sweep(c, tuple(layout)))


def test_pipeline_moves_an_xor_ahead_of_one_into_the_same_target():
    xt, yt, zy = cnot([(("x", 0), 1)], ("t", 0)), cnot([(("y", 0), 1)], ("t", 0)), cnot([(("z", 0), 0)], ("y", 0))
    layout = {"x": 1, "y": 1, "z": 1, "t": 1}
    # y's XOR into t goes first, so the write to y runs beside x's XOR into t
    assert pipeline([xt, yt, zy]) == [yt, xt, zy]
    assert report(Circuit(layout, [xt, yt, zy])).depth == 3
    assert report(Circuit(layout, [yt, xt, zy])).depth == 2
    # a read and a write of one wire never trade places, nor does a SWAP with anything on its wires
    for gates in ([zy, yt], [yt, zy], [xt, swap(("x", 0), ("t", 0)), yt]):
        assert pipeline(gates) == gates
    assert pipeline([]) == []


def test_given_lanes_match_one_lane_runs():
    rng = random.Random(5)
    for _ in range(10):
        layout = {"x": rng.randint(1, 3), "y": rng.randint(1, 2), "z": rng.randint(1, 3)}
        check_against_reference(random_circuit(rng, layout), (), rng, lanes=9)  # nine random inputs


def test_given_lanes_are_checked(monkeypatch):
    c = toy_circuit()
    with pytest.raises(LayoutMismatch):
        run_lanes(c, {"nope": [0]})
    with pytest.raises(ValueError):
        run_lanes(c, {"a": [0, 1], "b": [0]})
    for bad in (9, -1):  # a has 2 wires
        with pytest.raises(ValueError, match=f"value {bad} does not fit register 'a'"):
            run_lanes(c, {"a": [1, bad, 2]})
    monkeypatch.setattr(circuit, "MAX_LANE_BITS", 2)
    assert list(run_lanes(c, {"a": [0] * 4}).values("a")) == [2] * 4
    with pytest.raises(WidthTooLarge, match="5 lanes exceed the 2\\^2-lane bound"):
        run_lanes(c, {"a": [0] * 5})


def test_sweep_refuses_more_bits_than_the_lane_bound():
    c = Circuit({"a": circuit.MAX_LANE_BITS, "b": 1})
    with pytest.raises(WidthTooLarge, match=f"sweeping {circuit.MAX_LANE_BITS + 1} bits"):
        sweep(c, ("a", "b"))


def test_sweep_checks_its_register_names():
    c = toy_circuit()
    with pytest.raises(LayoutMismatch, match=r"no registers \['nope'\] in the circuit's layout"):
        sweep(c, ("nope",))
    with pytest.raises(ValueError, match="name one register twice"):
        sweep(c, ("a", "a"))
    # the first register named holds the low bits, whatever the layout order
    want = [reference_run(c, {"a": j >> 1, "b": j & 1})["b"] for j in range(8)]
    assert list(sweep(c, ("b", "a")).values("b")) == want


def test_kernel_matches_a_gate_by_gate_reference():
    rng = random.Random(11)
    layout = {"x": 3, "y": 3, "z": 4}
    wires = [(name, i) for name, width in layout.items() for i in range(width)]
    for _ in range(3):
        # a SWAP chain moves every wire one slot; the gates after it land in later chunks
        gates = list(random_gates(rng, wires, 150, max_controls=5))
        gates += [swap(u, v) for u, v in zip(wires, wires[1:])]
        gates += random_gates(rng, wires, 150, max_controls=5)
        c = Circuit(layout, gates)
        assert sum(g.kind != SWAP for g in c.gates) > circuit._CHUNK_GATES
        assert 5 in report(c).control_arity
        check_against_reference(c, ("x", "z"), rng)


def test_wires_that_move_as_a_block_go_back_by_slices(monkeypatch):
    # two adjacent registers swapped wire by wire each go back as one slice;
    # swapping one pair back splits both runs around the wire that stays home
    rng = random.Random(29)
    layout = {"x": 4, "y": 4, "z": 2}
    wires = [(name, i) for name, width in layout.items() for i in range(width)]
    pair = [swap(("x", i), ("y", i)) for i in range(4)]
    bodies = []
    compile_chunk = circuit._compile
    monkeypatch.setattr(circuit, "_compile", lambda *body: bodies.append(body) or compile_chunk(*body))
    for swaps, closing in (
        (pair, "w[0:4], w[4:8] = w[4:8], w[0:4]"),
        (pair + [swap(("x", 2), ("y", 2))], "w[0:2], w[3], w[4:6], w[7] = w[4:6], w[7], w[0:2], w[3]"),
    ):
        lines = lambda: [g for g in random_gates(rng, wires, 60) if g.kind != SWAP]
        c = Circuit(layout, lines() + swaps + lines())
        check_against_reference(c, ("x", "z"), rng)
        assert bodies[-1] == (closing,)


def test_register_names_never_reach_the_kernel():
    names = ["'\"", "x]#", "__import__('os')._exit(3)", "w", "w0", "mask", "{1/0}"]
    gates = []
    for u, v in zip(names, names[1:]):
        gates += [cnot([((u, 0), 1), ((v, 1), 0)], (v, 0)), swap((u, 1), (v, 0)), gate_not((u, 1))]
    c = Circuit(dict.fromkeys(names, 2), gates)
    assert list(c.layout) == names and len(c.gates) == 18
    check_against_reference(c, (names[0], names[2], names[4]), random.Random(3))  # compiles the kernel and entry
    for chunk in c._kernel:
        code = chunk.__code__
        assert code.co_names == () and {type(k) for k in code.co_consts} <= {int, type(None)}
        assert all(v in ("w", "mask") or v[0] == "w" and v[1:].isdigit() for v in code.co_varnames)
    code = c._one_lane.__code__
    assert set(code.co_names) == {"chunks", "misfit"} and {type(k) for k in code.co_consts} <= {int, type(None)}
    assert all(v in ("w", "c") or v[0] == "r" and v[1:].isdigit() for v in code.co_varnames)


def guarded_blocks(c):
    """(permutation branches, guarded blocks) in the circuit's kernel: how
    many `if w{s} == mask:` branches it runs, and how many `if w{g}:` blocks
    or `elif w{s}:` fallbacks, past each chunk's `if mask > 1:` clear.  The
    restore chunk that ends a kernel with SWAPs has no clear and no test."""
    ops = [i for chunk in c._kernel for i in dis.get_instructions(chunk)]
    permutations = sum(i.opname == "COMPARE_OP" and "==" in i.argrepr for i in ops)
    clears = sum(i.opname == "COMPARE_OP" and ">" in i.argrepr for i in ops)
    tests = sum(i.opname.startswith("POP_JUMP") for i in ops) - clears
    return permutations, tests - permutations


def check_every_guard_value(c, data, guard, rng):
    """check_against_reference with the guard register 0 in every lane (only
    `data` swept), swept with `data` (mixed), and 1 in every lane (NOTs in front)."""
    check_against_reference(c, data, rng)
    check_against_reference(c, data + (guard,), rng)
    ones = [gate_not((guard, i)) for i in range(c.layout[guard])]
    check_against_reference(Circuit(c.layout, [*ones, *c.gates]), data, rng)


def test_controlled_swaps_run_in_guarded_blocks(monkeypatch):
    rng = random.Random(13)
    monkeypatch.setattr(circuit, "_CHUNK_GATES", 1 << 10)  # one chunk, so no chunk boundary splits a stage
    # (8, 3) and (16, 4) are rings of 2^k wires, whose stages go round-robin over their cycles
    for n, k in ((3, 2), (5, 3), (6, 3), (8, 3), (16, 4)):
        stages = [(j, d) for d in ("left", "right") for j in range(k) if (1 << j) % n]
        c = Circuit({"d": n, "s": k}, [g for j, d in stages for g in controlled_rotation_stage("d", n, ("s", j), j, d)])
        # one permutation branch and one guarded fallback per stage: its swaps share s_j
        assert guarded_blocks(c) == (len(stages), len(stages))
        if n <= 8:
            check_every_guard_value(c, ("d",), "s", rng)
        else:  # every count, and seeded data: a sweep of 16 data wires is 2^16 reference runs
            check_against_reference(c, ("s",), rng, lanes=64)
    # a lone controlled swap runs under s, never under its middle gate's other control
    c = Circuit({"d": 2, "s": 1}, controlled_rotation_stage("d", 2, ("s", 0), 0, "left"))
    assert guarded_blocks(c) == (1, 1)
    check_every_guard_value(c, ("d",), "s", rng)
    # swaps that compose to the identity leave nothing to permute
    c = Circuit({"d": 2, "s": 1}, 2 * controlled_rotation_stage("d", 2, ("s", 0), 0, "left"))
    assert guarded_blocks(c) == (1, 1)
    check_every_guard_value(c, ("d",), "s", rng)


def swap_runs(c, monkeypatch):
    """Each run of controlled swaps in the circuit's kernel, generated as one
    chunk, in order: its guard wire and how many swaps its fallback runs."""
    bodies = []
    compile_chunk = circuit._compile

    def recording(*body):
        bodies.append(body)
        return compile_chunk(*body)

    monkeypatch.setattr(circuit, "_compile", recording)
    monkeypatch.setattr(circuit, "_CHUNK_GATES", 1 << 16)
    Circuit(c.layout, c.gates, c.restores)._kernel
    wires = [(name, i) for name, width in c.layout.items() for i in range(width)]
    lines = [line for body in bodies for line in body]
    runs = []
    for at, line in enumerate(lines):
        if line.endswith(" == mask:"):  # if w{g} == mask:, the permutation, elif w{g}:, then the lines
            body = takewhile(lambda x: x.startswith(" "), lines[at + 3:])
            runs.append((wires[int(line[4:].split()[0])], sum(1 for _ in body) // 3))
    return runs


def test_iteration_fanned_and_merged_stages_run_as_one_block_per_control(monkeypatch):
    # m = 16: the forward normalization's stage 0 runs 8 swaps on s_0 and 7 on
    # its copy on q[2]; the two top rotation stages run as one, 8 swaps on rb[16];
    # the reversed un-normalization's stage 0 runs 7 on q[2] and 8 on s_1, its count's bit 0
    s = lambda j: ("s", j)
    rb = lambda i: ("rb", i)
    assert swap_runs(build_euclid_iteration(16), monkeypatch) == [
        (s(3), 8), (s(2), 12), (s(1), 14), (s(0), 8), (("q", 2), 7),  # forward normalization
        (s(0), 15), (s(1), 14), (s(2), 12),  # forward rotation, stages 0-2
        (rb(16), 8), (rb(16), 8),  # reversed normalization's stage 3, on a; the merged stage 3, on q
        (s(0), 15), (s(1), 14), (s(2), 12),  # forward un-normalization, stages 0-2
        (rb(15), 12), (s(0), 14), (s(1), 15),  # the rest of the reversed normalization
        (rb(15), 12), (s(0), 14), (s(1), 15),  # reversed rotation, stages 2-0
        (s(3), 8),  # forward un-normalization, stage 3
        (("q", 2), 7), (s(1), 8), (s(0), 14), (rb(15), 12), (rb(16), 8),  # reversed un-normalization
    ]


def test_a_toffoli_on_the_swap_guard_starts_its_own_run():
    # a single line never joins a run of controlled swaps on its guard, nor
    # they its run, so every run of controlled swaps keeps its permutation branch
    rng = random.Random(23)
    layout = {"d": 4, "x": 2, "s": 1}
    s = ("s", 0)
    toffolis = [cnot([(s, 1), (("x", i), 1)], ("d", i)) for i in range(2)]
    stage = controlled_rotation_stage("d", 4, s, 0, "left")
    for gates, blocks in (
        (stage + toffolis[:1], (1, 1)),  # the swaps' branch and fallback; the Toffoli a plain line
        (toffolis[:1] + stage, (1, 1)),
        (stage[:3] + toffolis + stage[3:], (2, 3)),  # swap run, Toffoli block, swap run
    ):
        c = Circuit(layout, gates)
        assert guarded_blocks(c) == blocks
        check_every_guard_value(c, ("d", "x"), "s", rng)


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (5, 3), (8, 3)])
def test_one_lane_controlled_shift_matches_the_reference(n, k):
    check_against_reference(build_controlled_shift(n, k), ("data", "shift"), random.Random(n))


def test_one_wire_and_zero_or_one_lane_runs():
    c = Circuit({"a": 1}, [gate_not(("a", 0))])
    assert run_one(c, 0) == (1,) and run_one(c, 1) == (0,)
    assert list(run_lanes(c, {"a": [1]}).values("a")) == [0]
    assert list(run_lanes(c, {"a": []}).values("a")) == []
    assert list(sweep(c, ("a",)).values("a")) == [1, 0]
    c = toy_circuit()  # more wires than one, and a SWAP that moves them
    assert list(run_lanes(c, {"a": []}).values("b")) == []
    run = run_lanes(c, {"a": [2]})
    assert {name: next(run.values(name)) for name in c.layout} == reference_run(c, {"a": 2})


def block_circuit(name):
    """The blocks.BLOCKS builder `name`, built at the m = 4 sizes."""
    build, params = blocks.BLOCKS[name]
    sizes = {"n": 4, "k": 2, "w": 2, "m": 4}
    return build(*(sizes[p] for p in params))


@pytest.mark.parametrize("name", sorted(blocks.BLOCKS))
def test_one_lane_entry_matches_apply_and_run_lanes(name):
    check_against_reference(block_circuit(name), (), random.Random(name))


def test_run_wires_leaves_the_callers_list_in_layout_order():
    # the iteration's pair swap and the cyclic shift's SWAPs end wires in
    # other slots; the run must put each back in its own
    rng = random.Random(29)
    lanes = 37
    for c in (build_euclid_iteration(8), build_cyclic_shift(5)):
        pack = lambda values: [w for name, width in c.layout.items() for w in pack_lanes([v[name] for v in values], width)]
        inputs = [{name: rng.getrandbits(width) for name, width in c.layout.items()} for _ in range(lanes)]
        wires = pack(inputs)
        assert circuit.run_wires(c, wires, (1 << lanes) - 1) is None
        assert wires == pack([reference_run(c, v) for v in inputs])


def test_the_benchmark_adapter_runs_the_one_lane_kernel():
    """apply on a BasisState, the one-lane adapter the benchmark's division
    workload runs, against run_one."""
    rng = random.Random(31)
    for c in [*map(block_circuit, blocks.BLOCKS), build_naive_long_division(8), build_euclid_iteration(8)]:
        for _ in range(10):
            values = {name: rng.getrandbits(width) for name, width in c.layout.items()}
            out = circuit.apply(c, circuit.BasisState.from_values(c.layout, **values))
            assert out.bits == dict(zip(c.layout, run_one(c, *values.values())))
    c = toy_circuit()
    out = circuit.apply(c, circuit.BasisState.from_values({**c.layout, "z": 3}, a=1, z=5))
    assert out.bits == {**reference_run(c, {"a": 1}), "z": 5}  # a register the circuit lacks keeps its value
    with pytest.raises(LayoutMismatch, match="no register 'b'"):
        circuit.BasisState.from_values({"a": 2}, b=0)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"value {bad} does not fit register 'a'"):
            circuit.BasisState.from_values({"a": 2}, a=bad)
    for layout in ({"a": 2}, {"a": 2, "b": 2}):  # b missing, or b of another width
        with pytest.raises(LayoutMismatch, match="does not cover"):
            circuit.apply(c, circuit.BasisState.from_values(layout))


def test_one_lane_entry_on_one_wire_and_on_no_gates():
    c = Circuit({"a": 1}, [gate_not(("a", 0))])
    assert run_one(c, 0) == (1,) and run_one(c, 1) == (0,)
    assert run_one(Circuit({"a": 3, "b": 2}), 5, 2) == (5, 2)
    assert run_one(Circuit({})) == ()
    assert run_one(toy_circuit(), 2, 0) == tuple(reference_run(toy_circuit(), {"a": 2}).values())


def test_one_lane_entry_checks_each_value():
    c = toy_circuit()
    for values, bad, name in (((-1, 0), -1, "a"), ((4, 0), 4, "a"), ((0, 2), 2, "b"), ((0, -3), -3, "b")):
        with pytest.raises(ValueError, match=f"value {bad} does not fit register '{name}'"):
            run_one(c, *values)
    # the check is no assert, so it holds under python -O too
    code = (
        "from revgf2.blocks import build_swap\n"
        "from revgf2.circuit import run_one\n"
        "assert False, 'unreachable under -O'\n"
        "for bad in (-1, 4):\n"
        "    try:\n"
        "        run_one(build_swap(), bad)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(3)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-O", "-c", code], env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_one_lane_entry_is_generated_once_per_circuit(monkeypatch):
    compiled = []
    monkeypatch.setattr(circuit, "compile", lambda *args: compiled.append(args[1]) or compile(*args), raising=False)
    c = toy_circuit()  # its last gate is a SWAP, so a restore chunk follows its one chunk of lines
    run_one(c, 1, 0)
    assert compiled == ["<circuit kernel>", "<circuit kernel>", "<circuit one-lane entry>"]
    assert run_one(c, 2, 1) == tuple(reference_run(c, {"a": 2, "b": 1}).values())
    assert len(compiled) == 3 and c._one_lane.__globals__["chunks"] is c._kernel


def test_toffolis_that_share_a_one_control_run_in_one_block():
    rng = random.Random(17)
    layout = {"x": 4, "y": 4, "g": 2}
    g, h = ("g", 1), ("g", 0)
    c = Circuit(layout, [
        cnot([(g, 1), (h, 1)], ("y", 0)),  # guarded by g or h; the next gate narrows the run to g
        *(cnot([(("x", i), 1), (g, 1), (("x", i - 1), 0)], ("y", i)) for i in range(1, 4)),
        cnot([(h, 1)], ("y", 0)),  # a run of one line stays a plain line
    ])
    assert guarded_blocks(c) == (0, 1)
    check_every_guard_value(c, ("x", "y"), "g", rng)
    # a run longer than a chunk ends with the chunk and goes on under a new
    # guard; the two lines left over make the second block
    lines = circuit._CHUNK_GATES + 2
    c = Circuit(layout, [cnot([(g, 1), (("x", i % 4), 1)], ("y", i * 3 % 4)) for i in range(lines)])
    assert len(c._kernel) == 2 and guarded_blocks(c) == (0, 2)
    check_every_guard_value(c, ("x",), "g", rng)


def test_near_misses_stay_unguarded():
    rng = random.Random(19)
    layout = {"a": 1, "b": 1, "c": 1, "g": 1, "x": 3, "y": 3}
    a, b, c, g = ("a", 0), ("b", 0), ("c", 0), ("g", 0)
    x, y = [("x", i) for i in range(3)], [("y", i) for i in range(3)]
    near_misses = {
        "a line between two that share g writes g": [
            cnot([(g, 1), (x[0], 1)], y[0]), cnot([(x[1], 1)], g), cnot([(g, 1), (x[2], 1)], y[2])],
        "the middle gate's other control is not the outer target": [
            cnot([(b, 1)], a), cnot([(g, 1), (c, 1)], b), cnot([(b, 1)], a)],
        "a SWAP relabels the outer target inside the triple": [
            cnot([(b, 1)], a), cnot([(g, 1), (a, 1)], b), swap(a, c), cnot([(b, 1)], a)],
        "a shared 0-control": [cnot([(g, 0), (x[i], 1)], y[i]) for i in range(3)],
    }
    for name, gates in near_misses.items():
        circ = Circuit(layout, gates)
        assert guarded_blocks(circ) == (0, 0), name
        check_every_guard_value(circ, ("a", "b", "c", "x"), "g", rng)


def test_each_prefix_compiles_its_own_kernel():
    gates = [
        gate_not(("a", 0)),
        cnot([(("a", 0), 1)], ("a", 1)),
        cnot([(("a", 1), 1)], ("a", 0)),
        swap(("a", 0), ("a", 1)),  # emits no code, but relabels the output
    ]
    for n, out in zip(range(1, 5), (0b01, 0b11, 0b10, 0b01)):
        assert run_one(Circuit({"a": 2}, gates[:n]), 0) == (out,)


def test_kernel_generation_memory_is_bounded():
    # the m = 16 Euclid iteration compiled as one function peaks at about 4 MB;
    # streamed into chunks of _CHUNK_GATES lines it peaks near 0.75 MB, and
    # listing every line before chunking them takes it above 1.2 MB
    iteration = build_euclid_iteration(16)
    c = Circuit(iteration.layout, iteration.gates)  # a copy with no kernel yet
    tracemalloc.start()
    try:
        sweep(c, ())  # one lane, all zero
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sweep_memory_holds_one_int_per_wire():
    # a sweep needs the swept input patterns, one int per wire and a few
    # temporaries; a chunk that kept each target's old int until its stores
    # held up to one more per target (about 72 wire ints here)
    division = build_naive_long_division(8)
    division._kernel  # generated outside the measurement
    swept = ("a", "b")
    n = sum(division.layout[name] for name in swept)
    wire_bytes = (1 << n) // 8
    tracemalloc.start()
    try:
        sweep(division, swept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + division.width + 12) * wire_bytes


def test_report_counts_and_depth():
    rep = report(toy_circuit())
    assert rep.width == 3
    assert rep.gate_counts == {"NOT": 1, "CNOT": 2, "SWAP": 1}
    assert rep.control_arity == {1: 1, 2: 1}
    assert rep.total_gates == 4
    # every gate touches a[0], so no two can share a layer
    assert rep.depth == 4
    flat = rep.to_json()
    assert flat["gates_total"] == 4 and flat["cnot_arity_2"] == 1
