"""Reversible-gate IR, basis-state simulator, and resource accounting.

A Circuit is an ordered gate list over a named-register layout.  Gates are
NOT, multi-controlled NOT (controls carry a polarity: 1-control fires on
|1>, 0-control on |0>), and SWAP.  Simulation is over computational basis
states only; every circuit here is a classical reversible permutation, so
a basis state is one int of bits per register.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LayoutMismatch, WidthTooLarge

Wire = tuple[str, int]  # (register name, bit index)

NOT = "NOT"
CNOT = "CNOT"
SWAP = "SWAP"


@dataclass(frozen=True)
class Gate:
    kind: str
    controls: tuple[tuple[Wire, int], ...] = ()
    targets: tuple[Wire, ...] = ()

    def __post_init__(self):
        wires = [w for w, _ in self.controls] + list(self.targets)
        if len(set(wires)) != len(wires):
            raise ValueError("controls and targets must be disjoint wires")
        if self.kind == NOT and (self.controls or len(self.targets) != 1):
            raise ValueError("NOT takes one target and no controls")
        if self.kind == CNOT and (not self.controls or len(self.targets) != 1):
            raise ValueError("CNOT takes one target and at least one control")
        if self.kind == SWAP and len(self.targets) != 2:
            raise ValueError("SWAP takes exactly two targets")

    def wires(self):
        for w, _ in self.controls:
            yield w
        yield from self.targets


def gate_not(target: Wire) -> Gate:
    return Gate(NOT, targets=(target,))


def cnot(controls, target: Wire) -> Gate:
    """Multi-controlled NOT; `controls` is a list of (wire, polarity)."""
    return Gate(CNOT, controls=tuple(controls), targets=(target,))


def swap(w1: Wire, w2: Wire, controls=()) -> Gate:
    return Gate(SWAP, controls=tuple(controls), targets=(w1, w2))


@dataclass
class Circuit:
    """An ordered gate sequence over a register-name -> width layout."""

    layout: dict[str, int]
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            self._check_gate(g)

    def _check_gate(self, g: Gate):
        for reg, idx in g.wires():
            if reg not in self.layout or not 0 <= idx < self.layout[reg]:
                raise LayoutMismatch(f"wire {reg}[{idx}] not in layout")

    def add(self, g: Gate):
        self._check_gate(g)
        self.gates.append(g)

    def extend(self, gates):
        for g in gates:
            self.add(g)

    @property
    def width(self) -> int:
        return sum(self.layout.values())


@dataclass
class BasisState:
    """One bit per wire of a layout, stored as one int per register."""

    layout: dict[str, int]
    bits: dict[str, int]

    @staticmethod
    def zeros(layout: dict[str, int]) -> "BasisState":
        return BasisState(dict(layout), {name: 0 for name in layout})

    @staticmethod
    def from_values(layout: dict[str, int], **values: int) -> "BasisState":
        state = BasisState.zeros(layout)
        for name, value in values.items():
            state.set_reg(name, value)
        return state

    def get_reg(self, name: str) -> int:
        return self.bits[name]

    def set_reg(self, name: str, value: int):
        if name not in self.layout:
            raise LayoutMismatch(f"no register {name!r}")
        if value < 0 or value.bit_length() > self.layout[name]:
            raise ValueError(f"value {value} does not fit register {name!r}")
        self.bits[name] = value

    def copy(self) -> "BasisState":
        return BasisState(self.layout, dict(self.bits))

    def as_int(self) -> int:
        """Pack all registers into one int, layout order, first register lowest."""
        packed = 0
        shift = 0
        for name, width in self.layout.items():
            packed |= self.bits[name] << shift
            shift += width
        return packed

    @staticmethod
    def from_int(layout: dict[str, int], packed: int) -> "BasisState":
        bits = {}
        for name, width in layout.items():
            bits[name] = packed & ((1 << width) - 1)
            packed >>= width
        return BasisState(dict(layout), bits)


def _compatible(layout_a: dict[str, int], layout_b: dict[str, int]) -> bool:
    return all(layout_a.get(name) == width for name, width in layout_b.items())


def apply(circuit: Circuit, state: BasisState) -> BasisState:
    """Run the circuit on a basis state and return the resulting state."""
    if not _compatible(state.layout, circuit.layout):
        raise LayoutMismatch("state layout does not cover the circuit's registers")
    bits = dict(state.bits)
    for g in circuit.gates:
        fire = True
        for (reg, idx), polarity in g.controls:
            if (bits[reg] >> idx) & 1 != polarity:
                fire = False
                break
        if not fire:
            continue
        if g.kind == SWAP:
            (r1, i1), (r2, i2) = g.targets
            b1 = (bits[r1] >> i1) & 1
            b2 = (bits[r2] >> i2) & 1
            if b1 != b2:
                bits[r1] ^= 1 << i1
                bits[r2] ^= 1 << i2
        else:
            reg, idx = g.targets[0]
            bits[reg] ^= 1 << idx
    return BasisState(state.layout, bits)


def inverse(circuit: Circuit) -> Circuit:
    """Reverse the gate order; every gate kind here is self-inverse."""
    return Circuit(dict(circuit.layout), list(reversed(circuit.gates)))


def compose(first: Circuit, second: Circuit) -> Circuit:
    """Concatenate: run `first` then `second` (second's registers must exist)."""
    if not _compatible(first.layout, second.layout):
        raise LayoutMismatch("second circuit's registers missing from first's layout")
    return Circuit(dict(first.layout), list(first.gates) + list(second.gates))


@dataclass
class ResourceReport:
    """Width, per-kind and per-control-arity gate counts, greedy depth."""

    width: int
    gate_counts: dict[str, int]
    control_arity: dict[int, int]
    depth: int

    @property
    def total_gates(self) -> int:
        return sum(self.gate_counts.values())

    def to_json(self) -> dict:
        flat = {
            "width": self.width,
            "depth": self.depth,
            "gates_total": self.total_gates,
        }
        for kind in (NOT, CNOT, SWAP):
            flat[f"gates_{kind.lower()}"] = self.gate_counts.get(kind, 0)
        for arity in sorted(self.control_arity):
            flat[f"cnot_arity_{arity}"] = self.control_arity[arity]
        return flat


def report(circuit: Circuit) -> ResourceReport:
    """Resource accounting: width, gate histograms, greedy wire-disjoint depth."""
    counts: dict[str, int] = {}
    arity: dict[int, int] = {}
    wire_layer: dict[Wire, int] = {}
    depth = 0
    for g in circuit.gates:
        counts[g.kind] = counts.get(g.kind, 0) + 1
        if g.kind == CNOT:
            n = len(g.controls)
            arity[n] = arity.get(n, 0) + 1
        layer = 1 + max((wire_layer.get(w, 0) for w in g.wires()), default=0)
        for w in g.wires():
            wire_layer[w] = layer
        depth = max(depth, layer)
    return ResourceReport(circuit.width, counts, arity, depth)


def check_permutation(circuit: Circuit, max_width: int = 20) -> bool:
    """Exhaustively verify the circuit induces a bijection on basis states."""
    if circuit.width > max_width:
        raise WidthTooLarge(f"width {circuit.width} exceeds the {max_width}-wire bound")
    seen = set()
    for packed in range(1 << circuit.width):
        out = apply(circuit, BasisState.from_int(circuit.layout, packed)).as_int()
        if out in seen:
            return False
        seen.add(out)
    return True


# --- text netlist format ---------------------------------------------------


def emit_netlist(circuit: Circuit) -> str:
    """One REG line per register, then one line per gate."""
    lines = [f"REG {name} {width}" for name, width in circuit.layout.items()]
    for g in circuit.gates:
        if g.kind == NOT:
            (reg, idx), = g.targets
            lines.append(f"NOT {reg}[{idx}]")
        elif g.kind == CNOT:
            ctrls = " ".join(
                f"{'+' if pol else '-'}{reg}[{idx}]" for (reg, idx), pol in g.controls
            )
            (reg, idx), = g.targets
            lines.append(f"CNOT {ctrls} > {reg}[{idx}]")
        else:
            (r1, i1), (r2, i2) = g.targets
            lines.append(f"SWAP {r1}[{i1}] {r2}[{i2}]")
    return "\n".join(lines) + "\n"


def _parse_wire(token: str) -> Wire:
    reg, _, rest = token.partition("[")
    if not rest.endswith("]"):
        raise ValueError(f"malformed wire {token!r}")
    return reg, int(rest[:-1])


def parse_netlist(text: str) -> Circuit:
    layout: dict[str, int] = {}
    gates: list[Gate] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "REG":
            layout[parts[1]] = int(parts[2])
        elif parts[0] == "NOT":
            gates.append(gate_not(_parse_wire(parts[1])))
        elif parts[0] == "CNOT":
            sep = parts.index(">")
            controls = []
            for token in parts[1:sep]:
                polarity = 1 if token[0] == "+" else 0
                controls.append((_parse_wire(token[1:]), polarity))
            gates.append(cnot(controls, _parse_wire(parts[sep + 1])))
        elif parts[0] == "SWAP":
            gates.append(swap(_parse_wire(parts[1]), _parse_wire(parts[2])))
        else:
            raise ValueError(f"unknown netlist line {line!r}")
    return Circuit(layout, gates)

