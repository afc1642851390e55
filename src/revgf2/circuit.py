"""Reversible-gate IR, bit-sliced basis-state simulator, and resource accounting.

A Circuit is a value: an ordered gate tuple over a named-register layout,
checked against the layout once, when it is made, each distinct wire once.
A gate is itself a tuple, (kind, controls, targets), over wire and control
objects that the gate builders share.  A builder passes its
whole gate list, and the registers the circuit restores: operands handed
back unchanged and scratch that starts and ends at 0, on every input in
its domain; `verify` checks that, no run does.  Gates are NOT,
multi-controlled NOT (controls carry a polarity: 1-control fires on |1>,
0-control on |0>), and SWAP, so every circuit permutes basis states.
The simulator keeps one int per wire whose bit j is lane j's value.  It
has two run paths over one kernel, generated once per circuit on its
first run and never reset, since the gates never change: `run_one` takes
and returns one int per register, in layout order, as one lane, through
an entry generated beside the kernel; `run_wires` runs a layout-ordered
list of wire ints in place, in any number of lanes, under `sweep` (every
value of the named registers), `run_lanes` (given values, one lane each)
and the naive inversion driver.  `pack_lanes` and `lane_values` convert
between per-lane values and a register's wire ints, and `Sweep.changed`
marks the lanes in which registers came back changed; `apply` and
`BasisState` are the benchmark's one-lane adapter over `run_wires`.  Each
gate becomes one line of Python such as `w17 ^= w3 & ~w9`, compiled in
chunks of functions over local wire ints.  A SWAP only relabels which
list slot holds which wire while the code is generated; one last
assignment puts each wire the SWAPs moved back in its own slot, by slices
where wires moved as a block, so every run leaves the wires in layout
order.  A run of gates that one wire guards runs, or is skipped, as a
block (`_kernel`).  `pipeline` reorders
a gate list into wire-disjoint layers, moving a gate only past gates it
commutes with.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, islice, repeat
from operator import itemgetter, lshift, or_
from types import MappingProxyType

from .errors import LayoutMismatch, WidthTooLarge

Wire = tuple[str, int]  # (register name, bit index)

NOT = "NOT"
CNOT = "CNOT"
SWAP = "SWAP"


class Gate(tuple):
    """One gate, the tuple (kind, controls, targets): `controls` holds
    (wire, polarity) pairs and `targets` wires, both as tuples.  Checked
    when it is made; `gate_not`, `cnot` and `swap` make each gate over one
    shared object per distinct wire, (wire, polarity) pair and one-wire
    target tuple, so a large circuit holds little more than its gates."""

    __slots__ = ()
    kind = property(itemgetter(0))
    controls = property(itemgetter(1))
    targets = property(itemgetter(2))

    def __new__(cls, kind: str, controls=(), targets=()):
        controls, targets = tuple(controls), tuple(targets)
        wires = [w for w, _ in controls] + list(targets)
        if len(set(wires)) != len(wires):
            raise ValueError("controls and targets must be disjoint wires")
        return _checked(kind, controls, targets)

    def __repr__(self) -> str:
        return f"Gate{tuple.__repr__(self)}"

    def __getnewargs__(self):  # copy and pickle pass the three fields, not one tuple
        return tuple(self)

    def wires(self):
        for w, _ in self[1]:
            yield w
        yield from self[2]


def _checked(kind: str, controls: tuple, targets: tuple) -> Gate:
    """The gate, once its kind is one of the three and its arity holds; the
    caller checks that its wires are disjoint."""
    if kind not in (NOT, CNOT, SWAP):
        raise ValueError(f"a gate is NOT, CNOT or SWAP, not {kind!r}")
    if kind == NOT and (controls or len(targets) != 1):
        raise ValueError("NOT takes one target and no controls")
    if kind == CNOT and (not controls or len(targets) != 1):
        raise ValueError("CNOT takes one target and at least one control")
    if kind == SWAP and (controls or len(targets) != 2):
        raise ValueError("SWAP takes exactly two targets and no controls")
    return tuple.__new__(Gate, (kind, controls, targets))


# The objects the gate builders share, one per distinct value ever built:
# a few thousand per field size, against millions of gates at m = 163.
_wires: dict[Wire, Wire] = {}  # each wire
_pairs: dict[tuple[Wire, int], tuple[Wire, int]] = {}  # each (wire, polarity) pair
_alone: dict[Wire, tuple[Wire]] = {}  # each one-wire target tuple
_wire_of = itemgetter(0)  # a control pair's wire


def _target(w: Wire) -> tuple[Wire]:
    return _alone.setdefault(w, (_wires.setdefault(w, w),))


def gate_not(target: Wire) -> Gate:
    return _checked(NOT, (), _alone.get(target) or _target(target))


def cnot(controls, target: Wire) -> Gate:
    """Multi-controlled NOT; `controls` is a list of (wire, polarity)."""
    controls = tuple(controls)
    controls = tuple(map(_pairs.setdefault, controls, controls))
    if len(controls) == 1:
        disjoint = controls[0][0] != target
    else:
        wires = set(map(_wire_of, controls))
        disjoint = len(wires) == len(controls) and target not in wires
    if not disjoint:
        raise ValueError("controls and targets must be disjoint wires")
    if not controls:
        raise ValueError("CNOT takes one target and at least one control")
    return tuple.__new__(Gate, (CNOT, controls, _alone.get(target) or _target(target)))


def swap(w1: Wire, w2: Wire) -> Gate:
    if w1 == w2:
        raise ValueError("controls and targets must be disjoint wires")
    return _checked(SWAP, (), (_wires.setdefault(w1, w1), _wires.setdefault(w2, w2)))


def register_wires(reg: str, width: int) -> list[Wire]:
    """The wires of register `reg`, bit 0 first."""
    return [(reg, i) for i in range(width)]


def pipeline(gates) -> list[Gate]:
    """The same gates, reordered into wire-disjoint layers; a gate only moves
    past gates it commutes with, so the circuit computes the same permutation.

    On each wire the gates form phases: reads (controls), XORs into it (NOT
    and CNOT targets), or one SWAP.  Reads commute with reads and XORs into
    one wire with each other, so a gate whose use matches the wire's current
    phase joins it and follows the phase before; any other use, and every
    SWAP, starts a new phase that follows the current one.  Gates are placed
    highest first, height being the longest chain of gates that must follow,
    then by index, each in the first layer after the phases it follows where
    all its wires are free (one bitmask of busy layers per wire).  They come
    back sorted by (layer, index), so `report()` counts at most that many
    layers.  Not always shallower than the input order, though the
    multiplier is never deeper under any irreducible modulus at m <= 7.
    """
    gates = list(gates)
    follows: list[list[int]] = []  # follows[g]: the phases gate g comes after
    member: list[list[int]] = []  # member[g]: the phases gate g belongs to
    state: dict[Wire, tuple[str, int, int]] = {}  # wire -> (use, current phase, the phase before or -1)
    wires: list[list[Wire]] = []  # wires[g]: gate g's wires
    phases = 0
    for kind, controls, targets in gates:
        wires.append([w for w, _ in controls] + list(targets))
        write = SWAP if kind == SWAP else "xor"
        uses = [(w, "read") for w, _ in controls] + [(w, write) for w in targets]
        follows.append([])
        member.append([])
        for w, use in uses:
            current, now, before = state.get(w, (None, -1, -1))
            if use != current or use == SWAP:
                now, before = phases, now
                phases += 1
                state[w] = (use, now, before)
            if before >= 0:
                follows[-1].append(before)
            member[-1].append(now)
    # height[g]: 1 + the height of the highest gate that follows a phase of g
    above = [-1] * phases  # above[p]: the height of the highest gate that follows phase p
    height = [0] * len(gates)
    for g in reversed(range(len(gates))):
        height[g] = 1 + max((above[p] for p in member[g]), default=-1)
        for p in follows[g]:
            above[p] = max(above[p], height[g])
    busy: dict[Wire, int] = {}  # per wire, bit k set when layer k holds a gate on it
    done = [-1] * phases  # done[p]: the last layer phase p takes, so far
    layer = [0] * len(gates)
    for g in sorted(range(len(gates)), key=lambda g: (-height[g], g)):
        lo = 1 + max((done[p] for p in follows[g]), default=-1)
        taken = reduce(or_, map(busy.get, wires[g], repeat(0))) >> lo
        layer[g] = at = lo + (~taken & (taken + 1)).bit_length() - 1
        for w in wires[g]:
            busy[w] = busy.get(w, 0) | 1 << at
        for p in member[g]:
            done[p] = max(done[p], at)
    return [gates[g] for g in sorted(range(len(gates)), key=lambda g: (layer[g], g))]


@dataclass(frozen=True)
class Circuit:
    """A value: an ordered gate tuple over a register-name -> width layout,
    checked against the layout once, when it is made.  Its kernel is
    generated on the first run and never reset, since the gates never change.
    The layout is a read-only view of the circuit's own copy of the mapping
    it is given.  `restores` names the registers it hands back unchanged."""

    layout: Mapping[str, int]
    gates: tuple[Gate, ...] = ()
    restores: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "layout", MappingProxyType(dict(self.layout)))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "_growable", not self.gates)
        gates, layout = self.gates, self.layout
        if not set(map(type, gates)) <= {Gate}:
            raise TypeError("a circuit holds Gate values only")

        def outside(wire) -> bool:
            reg, idx = wire
            return not 0 <= idx < layout.get(reg, 0)

        # each distinct wire once: the targets', then the control pairs'; the
        # message names the first offender in gate order, whatever the set order
        wires = set(chain.from_iterable(map(itemgetter(2), gates)))
        wires.update(map(_wire_of, set(chain.from_iterable(map(itemgetter(1), gates)))))
        if any(map(outside, wires)):
            reg, idx = next(w for g in gates for w in g.wires() if outside(w))
            raise LayoutMismatch(f"wire {reg}[{idx}] not in layout")
        if not self.layout.keys() >= set(self.restores):
            raise LayoutMismatch(f"restored registers {sorted(set(self.restores) - self.layout.keys())} not in layout")

    def add(self, gate: Gate) -> None:
        """Append one gate to a circuit made empty, `Circuit(layout)`, before
        its first run.  Only perfbench/tests/test_perfbench.py still grows a
        circuit, and this goes once it passes its gates to the constructor;
        a circuit made with gates, as every builder's is, refuses."""
        if not self._growable or "_kernel" in self.__dict__:
            raise TypeError("only a circuit made empty grows, and only before its first run")
        object.__setattr__(self, "gates", self.gates + Circuit(self.layout, (gate,)).gates)

    @property
    def width(self) -> int:
        return sum(self.layout.values())

    @cached_property
    def _kernel(self) -> list:
        """The generated kernel: chunk functions over the wire list, which
        leave every wire in its own slot, in layout order.

        One streaming pass turns the gates into slot-resolved lines, the
        lines into units and the units into chunks.  A SWAP only exchanges
        the slots two wires are read from and written to; when the SWAPs
        leave a wire outside its own slot, one last chunk puts each such
        wire back in a single assignment, each block of wires that moved
        together as one slice: four at the m = 16 Euclid iteration's pair
        swap.  A unit is one line, or the three lines
        `a ^= b; b ^= s & a; a ^= b` of a controlled swap.
        It is the identity in every lane where its guard is 0: any 1-control
        of a single line, but only s of a controlled swap, whose first line
        writes a.  Consecutive units of one kind in a chunk that share a
        guard g run under one `if w{g}:`.  Since g is a control in every
        unit of the run, none writes it: when g is 0 in every lane at the
        run's start, every unit is the identity, and only then is the run
        skipped.  When the run's units are controlled swaps and g is 1 in
        every lane, every unit swaps a and b, so the run is one permutation
        of its locals, composed in order.
        """
        wires = [(name, i) for name, width in self.layout.items() for i in range(width)]
        index = {w: i for i, w in enumerate(wires)}
        slot = list(range(len(wires)))  # slot[i]: the list position holding wire i
        chunks = [_compile_chunk(runs) for runs in _chunk_runs(_units(_slot_lines(self.gates, index, slot)))]
        moved: list[list[int]] = []  # [first wire, past the last, first slot] per block the SWAPs moved together
        for i, at in enumerate(slot):
            if at == i:
                continue
            if moved and moved[-1][1] == i and slot[i - 1] == at - 1:
                moved[-1][1] += 1
            else:
                moved.append([i, i + 1, at])
        if moved:
            part = lambda a, b: f"w[{a}]" if b == a + 1 else f"w[{a}:{b}]"
            homes = ", ".join(part(i, j) for i, j, _ in moved)
            chunks.append(_compile(f"{homes} = " + ", ".join(part(at, at + j - i) for i, j, at in moved)))
        return chunks

    @cached_property
    def _one_lane(self):
        """The one-lane entry, generated from the kernel's chunks: it takes
        one int per register, in layout order, spreads their bits over a
        new wire list, runs the chunks with one lane and returns each
        register's value, read from its wires in layout order.  Like the
        chunks, its source holds only numbers, never a register name."""
        chunks = self._kernel
        layout = self.layout
        regs = [(f"r{k}", width) for k, width in enumerate(layout.values())]
        args = ", ".join(r for r, _ in regs)
        bits, outs, i = [], [], 0
        for r, width in regs:
            bits += [f"{r} >> {b} & 1" for b in range(width)]
            outs.append(" | ".join(f"w[{i + b}] << {b}" for b in range(width)) or "0")
            i += width
        # r >> width is nonzero both for a value too wide and for a negative one
        body = [f"if {' or '.join(f'{r} >> {width}' for r, width in regs)}:", f" misfit({args})"] if regs else []
        body += [f"w = [{', '.join(bits)}]", "for c in chunks:", " c(w, 1)", f"return ({''.join(o + ', ' for o in outs)})"]

        def misfit(*values):
            for (name, width), value in zip(layout.items(), values):
                if value < 0 or value.bit_length() > width:
                    raise ValueError(f"value {value} does not fit register {name!r}")

        namespace: dict = {"__builtins__": {}, "chunks": chunks, "misfit": misfit}
        source = f"def one({args}):\n " + "\n ".join(body)
        exec(compile(source, "<circuit one-lane entry>", "exec"), namespace)
        return namespace["one"]


# Gate lines per generated function.  Compiling the m = 16 Euclid iteration
# (1 264 gates, 1 232 lines once SWAPs are relabellings, with its guarded
# blocks) as one function peaks at about 4.5 MB under tracemalloc on
# Python 3.11, streamed into 128-line chunks at about 0.79 MB.  Longer
# chunks run fewer calls and loads, but the benchmark's peak RSS prices them:
# at 2048 lines `invert-naive-m16` ran 13-26 % more inversions per second
# and its peak RSS rose from 18.9 to 22.9 MB (+21 %), past the 10 % bound.
_CHUNK_GATES = 128


def _slot_lines(gates, index: dict[Wire, int], slot: list[int]):
    """Each NOT and CNOT as (target, 1-controls, 0-controls) in list slots.
    A SWAP exchanges two entries of `slot` and yields nothing."""
    for kind, controls, targets in gates:
        if kind == SWAP:
            a, b = map(index.__getitem__, targets)
            slot[a], slot[b] = slot[b], slot[a]
            continue
        ones = [slot[index[w]] for w, pol in controls if pol]
        zeros = [slot[index[w]] for w, pol in controls if not pol]
        yield slot[index[targets[0]]], ones, zeros


def _units(lines):
    """(guards, lines, swaps) per unit: a controlled swap `a ^= b; b ^= s &
    a; a ^= b` (swaps True) guarded by s only, or one line guarded by each
    1-control.  Holds at most three lines, to see a controlled swap whole."""
    window = []
    for line in lines:
        window.append(line)
        if len(window) < 3:
            continue
        (a, ab, az), (b, bb, bz), third = window
        if ab == [b] and not az and len(bb) == 2 and a in bb and not bz and third == window[0]:
            yield frozenset(bb) - {a}, window, True
            window = []
        else:
            yield frozenset(ab), window[:1], False
            del window[0]
    for line in window:
        yield frozenset(line[1]), [line], False


def _chunk_runs(units):
    """Pack units into chunks of at most _CHUNK_GATES lines; a chunk is a
    list of [guards, lines, swaps] runs, where a unit joins the run before
    it if both are controlled swaps or both single lines, they share a
    guard, and the run's guards narrow to the shared ones."""
    runs: list[list] = []
    size = 0
    for guards, lines, swaps in units:
        if size + len(lines) > _CHUNK_GATES:
            yield runs
            runs, size = [], 0
        if runs and runs[-1][0] & guards and runs[-1][2] == swaps:
            runs[-1][0] &= guards
            runs[-1][1] += lines
        else:
            runs.append([guards, list(lines), swaps])
        size += len(lines)
    if runs:
        yield runs


def _compile_chunk(runs):
    """One chunk: load the wires it touches into locals, clear the target
    slots when there is more than one lane, so each target's old int dies
    when its first line replaces it, run its gate lines, store the targets
    back.  A run of more than one line runs under `if w{g}:` on its lowest
    guard g; a run of controlled swaps on g runs as one permutation of the
    pairs its lines swap under `if w{g} == mask:`, and as its lines under
    `elif w{g}:`.  The source
    holds only slot numbers, `w`, `mask` and the operators, never a register
    name, and runs without builtins."""
    loads: dict[int, None] = {}  # slots the chunk reads, in first-use order
    stores: dict[int, None] = {}  # slots it writes
    code: list[str] = []
    for guards, lines, swaps in runs:
        indent = ""
        if swaps:  # each controlled swap is the lines a ^= b; b ^= s & a; a ^= b
            g = min(guards)
            pairs = [(a[0], b[0]) for a, b in zip(lines[0::3], lines[1::3])]
            code += [f"if w{g} == mask:", f" {_permutation(pairs)}", f"elif w{g}:"]
            indent = " "
        elif len(lines) > 1:
            code.append(f"if w{min(guards)}:")
            indent = " "
        for t, ones, zeros in lines:
            # without a 1-control, mask keeps ~w inside the lanes
            terms = [f"w{c}" for c in ones] or ["mask"]
            terms += [f"~w{c}" for c in zeros]
            code.append(f"{indent}w{t} ^= {' & '.join(terms)}")
            loads.update(dict.fromkeys(ones + zeros + [t]))
            stores[t] = None
    body = [f"w{s} = w[{s}]" for s in loads] + ["if mask > 1:"] + [f" w[{s}] = 0" for s in stores]
    body += code + [f"w[{s}] = w{s}" for s in stores]
    return _compile(*body)


def _compile(*body: str):
    """The chunk function `chunk(w, mask)` with these body lines, without builtins."""
    namespace: dict = {"__builtins__": {}}
    exec(compile("def chunk(w, mask):\n " + "\n ".join(body), "<circuit kernel>", "exec"), namespace)
    return namespace["chunk"]


def _permutation(pairs) -> str:
    """One statement that swaps each pair of locals, in order."""
    held: dict[int, int] = {}  # held[x]: the local whose value x holds after the swaps so far
    for a, b in pairs:
        held[a], held[b] = held.get(b, b), held.get(a, a)
    moved = [x for x, y in held.items() if x != y]
    if not moved:
        return "pass"
    return f"{', '.join(f'w{x}' for x in moved)} = {', '.join(f'w{held[x]}' for x in moved)}"


def run_wires(circuit: Circuit, wires: list[int], mask: int) -> None:
    """Run the circuit in place on `wires`, one int per wire in layout order
    with one bit per lane in `mask`; the run leaves them in layout order."""
    for chunk in circuit._kernel:
        chunk(wires, mask)


@dataclass
class BasisState:
    """The benchmark's one-lane state: one int per register of a layout."""

    layout: dict[str, int]
    bits: dict[str, int]

    @staticmethod
    def from_values(layout: dict[str, int], **values: int) -> "BasisState":
        """The state that holds `values`, the layout's other registers at 0."""
        bits = dict.fromkeys(layout, 0)
        for name, value in values.items():
            if name not in layout:
                raise LayoutMismatch(f"no register {name!r}")
            if value < 0 or value.bit_length() > layout[name]:
                raise ValueError(f"value {value} does not fit register {name!r}")
            bits[name] = value
        # copy() takes a dict or a circuit's read-only layout, and on the latter is ~6x faster than dict()
        return BasisState(layout.copy(), bits)

    def get_reg(self, name: str) -> int:
        return self.bits[name]


def apply(circuit: Circuit, state: BasisState) -> BasisState:
    """Run the circuit on one basis state as one lane; registers it lacks keep their values."""
    if any(state.layout.get(name) != width for name, width in circuit.layout.items()):
        raise LayoutMismatch("state layout does not cover the circuit's registers")
    bits = dict(state.bits)
    wires = [(bits[name] >> i) & 1 for name, width in circuit.layout.items() for i in range(width)]
    run_wires(circuit, wires, 1)
    after = iter(wires)
    for name, width in circuit.layout.items():
        bits[name] = sum(b << i for i, b in enumerate(islice(after, width)))
    return BasisState(state.layout, bits)


def run_one(circuit: Circuit, *values: int) -> tuple[int, ...]:
    """Run the circuit on one input given as one int per register, in layout
    order, and return each register's value in the same order.  A negative
    value, or one wider than its register, raises ValueError."""
    return circuit._one_lane(*values)


# 2**22 lanes make each wire int 512 KiB.  At this bound the 22-wire round
# trip takes 0.02 s and 33 MB.  The m = 10 division sweep (21 bits) takes
# 0.04-0.06 s and 33 MB; `verify naive-div --m 10` takes 3.8-5.9 s over six
# runs and 82 MB, nearly all of it in the per-lane Python loop over
# poly_divmod (Python 3.11, shared 2-core Xeon).
MAX_LANE_BITS = 22

# _OCTET_BIT[b] maps a byte to "1" if its bit b is set, else to "0"
_OCTET_BIT = [bytes(ord("0") + (x >> b & 1) for x in range(256)) for b in range(8)]


def pack_lanes(values: list[int], width: int) -> list[int]:
    """The `width` wire ints of a register that holds values[j] in lane j."""
    if not values:
        return [0] * width
    if min(values) < 0 or max(values).bit_length() > width:
        raise ValueError(f"a lane value does not fit {width} wires")
    first, mask = values[0], (1 << len(values)) - 1
    if values.count(first) == len(values):  # every lane alike, one lane included: no transpose
        return [mask if first >> i & 1 else 0 for i in range(width)]
    wires = []
    for p in range(0, width, 8):
        # wires p..p+7 as one byte per lane, lane 0 last: a byte per lane, not an object
        octets = bytes([v >> p & 255 for v in values])[::-1]
        wires += [int(octets.translate(_OCTET_BIT[b]), 2) for b in range(min(8, width - p))]
    return wires


def lane_values(wires: list[int], lanes: int):
    """Iterate over the value a register's wire ints hold in each lane, lane 0 first."""
    if lanes <= 1:  # no lane, or one whose value is the wires' own bits
        return iter([sum(w << i for i, w in enumerate(wires))] * lanes)
    zero, values = int.from_bytes(b"0" * lanes, "big"), repeat(0, lanes)
    for p in range(0, len(wires), 8):
        # wire p + b as one "0" or "1" byte per lane, lane 0 last; less "0", it is bit b of each lane's byte
        byte = sum(int.from_bytes(format(w, f"0{lanes}b").encode(), "big") - zero << b for b, w in enumerate(wires[p:p + 8]))
        values = map(or_, values, map(lshift, byte.to_bytes(lanes, "little"), repeat(p)))
    return values


@dataclass
class Sweep:
    """Each register's wire ints before and after a sweep; bit j of a wire is lane j's bit."""

    lanes: int
    before: dict[str, list[int]]
    after: dict[str, list[int]]

    def values(self, name: str):
        """Iterate over register `name`'s output value in each lane, lane 0 first."""
        return lane_values(self.after[name], self.lanes)

    def changed(self, registers) -> int:
        """The lanes in which any of `registers` came back changed, as a lane mask."""
        return reduce(or_, (b ^ a for r in registers for b, a in zip(self.before[r], self.after[r])), 0)


def _run_sweep(circuit: Circuit, lanes: int, before: dict[str, list[int]]) -> Sweep:
    wires = [x for name in circuit.layout for x in before[name]]
    run_wires(circuit, wires, (1 << lanes) - 1)
    after = iter(wires)
    return Sweep(lanes, before, {name: list(islice(after, width)) for name, width in circuit.layout.items()})


def sweep(circuit: Circuit, registers: tuple[str, ...]) -> Sweep:
    """Run the circuit on every value of `registers` at once.  Lane j holds the
    j-th combination, the first register in the low bits; the rest start at 0."""
    unknown = set(registers) - set(circuit.layout)
    if unknown:
        raise LayoutMismatch(f"no registers {sorted(unknown)} in the circuit's layout")
    if len(set(registers)) != len(registers):
        raise ValueError(f"registers {list(registers)} name one register twice")
    n = sum(circuit.layout[name] for name in registers)
    if n > MAX_LANE_BITS:
        raise WidthTooLarge(f"sweeping {n} bits exceeds the {MAX_LANE_BITS}-bit lane bound")
    lanes = 1 << n
    before = {name: [0] * width for name, width in circuit.layout.items()}
    patterns: list[int] = []  # pattern k holds bit k of every lane number j
    for half in (1 << k for k in range(n)):  # double: the lanes so far, then again with bit k set
        patterns = [p | p << half for p in patterns] + [((1 << half) - 1) << half]
    swept = iter(patterns)
    for name in registers:
        before[name] = list(islice(swept, circuit.layout[name]))
    return _run_sweep(circuit, lanes, before)


def run_lanes(circuit: Circuit, values: dict[str, list[int]]) -> Sweep:
    """Run the circuit on given inputs, one lane each: lane j holds
    values[name][j] in each named register; the rest start at 0.  A negative
    value, or one wider than its register, raises ValueError."""
    unknown = set(values) - set(circuit.layout)
    if unknown:
        raise LayoutMismatch(f"no registers {sorted(unknown)} in the circuit's layout")
    lanes = {len(column) for column in values.values()}
    if len(lanes) > 1:
        raise ValueError("every register needs one value per lane")
    n = lanes.pop() if lanes else 0
    if n > 1 << MAX_LANE_BITS:
        raise WidthTooLarge(f"{n} lanes exceed the 2^{MAX_LANE_BITS}-lane bound")
    for name, column in values.items():
        for value in (min(column, default=0), max(column, default=0)):
            if value < 0 or value.bit_length() > circuit.layout[name]:
                raise ValueError(f"value {value} does not fit register {name!r}")
    before = {name: pack_lanes(values.get(name, []), width) for name, width in circuit.layout.items()}
    return _run_sweep(circuit, n, before)


@dataclass
class ResourceReport:
    """Width, per-kind and per-control-arity gate counts, greedy depth, and
    Toffoli-depth: the same layering, where only a CNOT with two or more
    controls adds a layer."""

    width: int
    gate_counts: dict[str, int]
    control_arity: dict[int, int]
    depth: int
    toffoli_depth: int

    @property
    def total_gates(self) -> int:
        return sum(self.gate_counts.values())

    def to_json(self) -> dict:
        flat = {
            "width": self.width,
            "depth": self.depth,
            "toffoli_depth": self.toffoli_depth,
            "gates_total": self.total_gates,
        }
        for kind in (NOT, CNOT, SWAP):
            flat[f"gates_{kind.lower()}"] = self.gate_counts.get(kind, 0)
        for arity in sorted(self.control_arity):
            flat[f"cnot_arity_{arity}"] = self.control_arity[arity]
        return flat


def report(circuit: Circuit) -> ResourceReport:
    """Resource accounting: width, gate histograms, greedy wire-disjoint depth
    and Toffoli-depth, in one pass that unpacks each gate once."""
    gates = circuit.gates
    arity: dict[int, int] = {}
    # per wire, the layer of the last gate on it; it only grows, so the deepest ends on some wire
    layers: dict[Wire, int] = {}
    toffoli_layers: dict[Wire, int] = {}
    get, toffoli_get = layers.get, toffoli_layers.get
    nots = swaps = 0
    for _, controls, targets in gates:
        if controls:  # a CNOT: the layer after the latest of its wires
            t, = targets
            layer, toffoli_layer = get(t, 0), toffoli_get(t, 0)
            for w, _ in controls:  # compare and assign: max() would cost about twice the loop
                x = get(w, 0)
                if x > layer:
                    layer = x
                x = toffoli_get(w, 0)
                if x > toffoli_layer:
                    toffoli_layer = x
            n = len(controls)
            arity[n] = arity.get(n, 0) + 1
            layer += 1
            toffoli_layer += n > 1
            layers[t], toffoli_layers[t] = layer, toffoli_layer
            for w, _ in controls:
                layers[w], toffoli_layers[w] = layer, toffoli_layer
        elif len(targets) == 2:  # a SWAP
            swaps += 1
            a, b = targets
            layers[a] = layers[b] = 1 + max(get(a, 0), get(b, 0))
            toffoli_layers[a] = toffoli_layers[b] = max(toffoli_get(a, 0), toffoli_get(b, 0))
        else:  # a NOT
            nots += 1
            t, = targets
            layers[t] = 1 + get(t, 0)
    counts = {kind: n for kind, n in ((NOT, nots), (CNOT, len(gates) - nots - swaps), (SWAP, swaps)) if n}
    depth = max(layers.values(), default=0)
    return ResourceReport(circuit.width, counts, arity, depth, max(toffoli_layers.values(), default=0))


# --- text netlist format ---------------------------------------------------


def emit_netlist(circuit: Circuit) -> str:
    """One REG line per register, then one line per gate."""
    lines = [f"REG {name} {width}" for name, width in circuit.layout.items()]
    for kind, controls, targets in circuit.gates:
        if kind == NOT:
            (reg, idx), = targets
            lines.append(f"NOT {reg}[{idx}]")
        elif kind == CNOT:
            ctrls = " ".join(
                f"{'+' if pol else '-'}{reg}[{idx}]" for (reg, idx), pol in controls
            )
            (reg, idx), = targets
            lines.append(f"CNOT {ctrls} > {reg}[{idx}]")
        else:
            (r1, i1), (r2, i2) = targets
            lines.append(f"SWAP {r1}[{i1}] {r2}[{i2}]")
    return "\n".join(lines) + "\n"
