import random

import pytest

from revgf2.circuit import (
    SWAP,
    BasisState,
    Circuit,
    Gate,
    apply,
    check_permutation,
    cnot,
    compose,
    emit_netlist,
    gate_not,
    inverse,
    parse_netlist,
    report,
    swap,
    sweep,
)
from revgf2.errors import LayoutMismatch, WidthTooLarge


def toy_circuit():
    c = Circuit({"a": 2, "b": 1})
    c.add(gate_not(("a", 0)))
    c.add(cnot([(("a", 0), 1)], ("b", 0)))
    c.add(cnot([(("a", 0), 1), (("a", 1), 0)], ("b", 0)))
    c.add(swap(("a", 0), ("a", 1)))
    return c


def test_gate_validation():
    with pytest.raises(ValueError):
        cnot([(("a", 0), 1)], ("a", 0))  # control equals target
    with pytest.raises(ValueError):
        swap(("a", 0), ("a", 0))
    with pytest.raises(ValueError):
        Gate(SWAP, controls=((("a", 2), 1),), targets=(("a", 0), ("a", 1)))


def test_layout_checked_on_add():
    c = Circuit({"a": 2})
    with pytest.raises(LayoutMismatch):
        c.add(gate_not(("b", 0)))
    with pytest.raises(LayoutMismatch):
        c.add(gate_not(("a", 5)))


def test_apply_polarity():
    c = Circuit({"a": 1, "b": 1})
    c.add(cnot([(("a", 0), 0)], ("b", 0)))  # fires on |0>
    out = apply(c, BasisState.zeros(c.layout))
    assert out.get_reg("b") == 1
    out = apply(c, BasisState.from_values(c.layout, a=1))
    assert out.get_reg("b") == 0


def test_inverse_is_identity():
    c = toy_circuit()
    run = sweep(compose(c, inverse(c)), ("a", "b"))
    assert run.lanes == 8 and run.after == run.before


def test_check_permutation():
    assert check_permutation(toy_circuit())
    with pytest.raises(WidthTooLarge):
        check_permutation(Circuit({"a": 30}))


def random_circuit(rng, layout):
    wires = [(name, i) for name, width in layout.items() for i in range(width)]
    c = Circuit(layout)
    for _ in range(40):
        kind = rng.choice(("NOT", "SWAP", "CNOT"))
        if kind == "NOT":
            c.add(gate_not(rng.choice(wires)))
        elif kind == "SWAP":
            c.add(swap(*rng.sample(wires, 2)))
        else:
            target, *controls = rng.sample(wires, rng.randint(2, min(4, len(wires))))
            c.add(cnot([(w, rng.randint(0, 1)) for w in controls], target))
    return c


def test_every_lane_matches_a_one_lane_run():
    rng = random.Random(7)
    for _ in range(20):
        layout = {"x": rng.randint(1, 3), "y": rng.randint(1, 2), "z": rng.randint(1, 3)}
        c = random_circuit(rng, layout)  # at most 8 wires
        run = sweep(c, ("x", "z"))  # y starts at 0 in every lane
        outputs = {name: list(run.values(name)) for name in layout}
        for j in range(run.lanes):
            state = BasisState.from_values(layout, x=j % (1 << layout["x"]), z=j >> layout["x"])
            out = apply(c, state)
            assert {name: outputs[name][j] for name in layout} == out.bits


def test_compiled_gates_follow_add():
    c = Circuit({"a": 2})
    c.add(gate_not(("a", 0)))
    assert apply(c, BasisState.zeros(c.layout)).get_reg("a") == 0b01
    c.add(cnot([(("a", 0), 1)], ("a", 1)))
    assert apply(c, BasisState.zeros(c.layout)).get_reg("a") == 0b11


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


def test_netlist_round_trip():
    c = toy_circuit()
    text = emit_netlist(c)
    back = parse_netlist(text)
    assert back.layout == c.layout
    assert back.gates == c.gates
    assert "CNOT +a[0] -a[1] > b[0]" in text
