"""Builders for the reversible building blocks: SWAP, shifts, counters,
the leading-zero count and degree computation, conditional XOR, and the
modular multiply-accumulate.

Count and degree registers for an m-wire value have ceil(log2 m) wires.
They hold 0..m-1, every degree and every leading-zero count of a nonzero
m-wire value.  They hold m only when m is not a power of two: at m = 2^k,
m needs ceil(log2(m+1)) = k+1 bits.
"""

from __future__ import annotations

import functools
import math

from .circuit import Circuit, Gate, Wire, cnot, gate_not, pipeline, register_wires, swap
from .errors import BadParameter
from .field import FieldSpec, default_field


def log2_ceil(m: int) -> int:
    """ceil(log2 m), but 1 at m = 1, the narrowest register; the
    degree-register width for GF(2^m)."""
    if m < 1:
        raise BadParameter("log2_ceil needs a positive argument")
    return max(1, (m - 1).bit_length())


def build_swap() -> Circuit:
    """Two-wire bit transposition from 3 CNOT gates."""
    q0, q1 = ("q", 0), ("q", 1)
    return Circuit({"q": 2}, [cnot([(q0, 1)], q1), cnot([(q1, 1)], q0), cnot([(q0, 1)], q1)])


def _rotation_pairs(reg: str, n: int, amount: int, direction: str):
    """Wire pairs whose swaps, in order, rotate an n-wire register
    cyclically by `amount` positions.

    "left" rotates toward higher indices (multiply by z); "right" is the
    inverse rotation, the same pairs in reverse order.  The rotation by
    d = amount mod n steps each of its gcd(n, d) cycles c, c+d, c+2d, ...
    (mod n) by two reflections: reverse the cycle, then reverse it again
    without its first wire.  That is n - gcd(n, d) swaps in all, none for
    d = 0, in two layers of disjoint swaps.  When the swaps share a
    control, their order sets the depth.  On a ring of n = 2^k wires each
    reflection goes round-robin over the cycles, pair i of every cycle,
    then pair i + 1, and every first reflection goes before any second
    one: the m = 16 Euclid iteration is 228 deep, against 242 with the
    cycles one after the other.  Other rings keep the cycles one after the
    other: round-robin there makes the m = 163 iteration 3 291 deep,
    Toffoli-depth 3 062, against 2 528 and 2 313.
    """
    if direction not in ("left", "right"):
        raise BadParameter(f"direction must be left or right, not {direction!r}")
    d = amount % n
    g = math.gcd(n, d)  # gcd(n, 0) = n: n one-wire cycles, no steps
    cycles = ([(reg, (c + t * d) % n) for t in range(n // g)] for c in range(g))
    # each cycle's two reflections, as lists of pairs
    steps = [[[(part[i], part[-1 - i]) for i in range(len(part) // 2)] for part in (cycle, cycle[1:])] for cycle in cycles]
    # either order is correct; the ring's size picks the shallower one (see above)
    if n & (n - 1):
        pairs = [pair for cycle in steps for reflection in cycle for pair in reflection]
    else:  # zip takes every pair, since every cycle has n / g wires
        pairs = [pair for r in (0, 1) for row in zip(*(cycle[r] for cycle in steps)) for pair in row]
    return pairs if direction == "left" else pairs[::-1]


def rotation_gates(reg: str, n: int, amount: int, direction: str) -> list[Gate]:
    """Cyclic rotation of an n-wire register by `amount` positions:
    n - gcd(n, amount mod n) SWAPs, at most two deep."""
    return [swap(w1, w2) for w1, w2 in _rotation_pairs(reg, n, amount, direction)]


def build_cyclic_shift(n: int, direction: str = "left") -> Circuit:
    """Cyclic rotation of an n-wire register by one position (n-1 SWAPs)."""
    if n < 2:
        raise BadParameter("cyclic shift needs n >= 2")
    return Circuit({"r": n}, rotation_gates("r", n, 1, direction))


def _controlled_swaps(pairs, control) -> list[Gate]:
    """A swap of each wire pair, in order, when the `control` wire is 1."""
    gates = []
    for w1, w2 in pairs:
        # CSWAP as CNOT / Toffoli / CNOT: only the middle gate carries the control
        outer = cnot([(w2, 1)], w1)
        gates += [outer, cnot([(control, 1), (w1, 1)], w2), outer]
    return gates


def controlled_rotation_stage(data: str, n: int, control: Wire, j: int, direction: str) -> list[Gate]:
    """Stage j of a rotation by a count: rotate the n-wire register `data` by
    2^j when the `control` wire, the count's bit j, is 1.  Its
    n - gcd(n, 2^j mod n) SWAPs, two reflections per cycle, are each a
    controlled swap on that one wire (no ancillas)."""
    return _controlled_swaps(_rotation_pairs(data, n, 1 << j, direction), control)


def controlled_rotation_gates(data: str, n: int, shift, direction: str) -> list[Gate]:
    """Rotate the n-wire register `data` by the count held on the wires
    `shift`, bit j on shift[j]: its stages j = 0..k-1 in order."""
    return [g for j, control in enumerate(shift) for g in controlled_rotation_stage(data, n, control, j, direction)]


def build_controlled_shift(n: int, k: int) -> Circuit:
    """|theta>|s> <-> |theta rotated left by s>|s> with an n-wire data
    register and a k-wire shift register."""
    if n < 2 or k < 1:
        raise BadParameter("controlled shift needs n >= 2 and k >= 1")
    return Circuit({"data": n, "shift": k}, controlled_rotation_gates("data", n, register_wires("shift", k), "left"), ("shift",))


def _increment_gates(wires) -> list[Gate]:
    """Gate list for +1 mod 2^len(wires), least significant wire first."""
    gates = [cnot([(w, 1) for w in wires[:j]], wires[j]) for j in range(len(wires) - 1, 0, -1)]
    return gates + [gate_not(wires[0])]


def build_increment(w: int) -> Circuit:
    """|k> <-> |k+1> on a w-wire register plus one ancilla that holds the
    most-significant result bit (and stays 0 for k <= 2^w - 2)."""
    if w < 1:
        raise BadParameter("increment needs w >= 1")
    return Circuit({"k": w, "anc": 1}, _increment_gates(register_wires("k", w) + [("anc", 0)]))


def build_decrement(w: int) -> Circuit:
    """The increment circuit run backwards; for inputs in [1, 2^w - 1] the
    ancilla returns to 0, so one ancilla serves every decrement in a row."""
    if w < 1:
        raise BadParameter("decrement needs w >= 1")
    return Circuit({"k": w, "anc": 1}, reversed(_increment_gates(register_wires("k", w) + [("anc", 0)])))


def normalize_gates(div: str, n: int, s) -> list[Gate]:
    """Binary-search normalization of a nonzero n-wire register `div` with
    a count s of L = ceil(log n) wires at 0, bit j on the wire s[j]
    (Warren, Hacker's Delight, section 5-3): for j = L-1 down to 0, NOT
    s_j under 0-controls on the top 2^j wires of div, then shift div left
    by 2^j on s_j.  Each stage leaves fewer than 2^j leading zeros, so s
    ends as n-1-deg(div) and div's top wire at 1.  A stage only fires when
    div's top 2^j wires are 0, so there a shift and a rotation agree.
    Stage 0 rotates by one, as two reflections of disjoint pairs, of
    wires 0..n-1 and then of 1..n-1: n - 1 controlled swaps whose depth
    is that of their n - 1 Toffolis on s_0.  Each reflection is emitted
    from the middle out, which the disjoint pairs allow: the m = 16
    Euclid iteration is 228 deep, against 243 from the outside in.  A
    shift chain there, (i - 1, i) for i = n-1 down to 1, has each link
    wait three layers on the wire it shares with the one before: 309
    deep, though Toffoli-depth 181 against 185.
    Stages j >= 1 shift by the descending chain (i - 2^j, i) for
    i = n-1 down to 2^j: n - 2^j swaps where a rotation needs
    n - gcd(n, 2^j).  A link shares a wire only with the link 2^j after
    it, so the chain already keeps pace with s_j's Toffolis; rotations
    there (`_rotation_pairs`) make the m = 16 Euclid iteration 253 deep,
    against 228.
    The gates reversed undo both."""
    if len(s) != log2_ceil(n):
        raise BadParameter(f"normalizing {n} wires takes a {log2_ceil(n)}-wire count, not {len(s)}")
    return [g for j in reversed(range(len(s))) for g in normalize_stage(div, n, s[j], j)]


def normalize_stage(div: str, n: int, control: Wire, j: int, idle=()) -> list[Gate]:
    """Stage j of `normalize_gates`, its count bit on the `control` wire:
    the zero test of div's top 2^j wires, then the shift on `control`.

    Wires in `idle`, at 0 and untouched by the stage, shorten the queue of
    the shift's k swaps on `control`.  The swaps, in pair order, form
    C = ceil(k/8) near-equal contiguous blocks, the larger first.  The
    count bit runs the first block, and a copy of it on one of the first
    C - 1 idle wires each other one.  The copies double in number each
    layer, copy i from wire i - 2^floor(log2 i) of (count bit, copies...),
    and are cleared in reverse order after the swaps.  So the Toffolis
    queue on C wires, about 8 on each, not all on one: 2 CNOTs per copy,
    no wire, and each block is still a run of controlled swaps under one
    guard in the kernel.  With k <= 8 or no idle wire, the stage of
    `normalize_gates`.  The Euclid iteration fans stage 0 out only: copies
    at stages j >= 1 lengthen the shift chains, and make the m = 16
    iteration 254 deep, against 228."""
    if j:
        pairs = [((div, i - (1 << j)), (div, i)) for i in range(n - 1, (1 << j) - 1, -1)]
    else:
        pairs = [((div, i), (div, n - 1 - i)) for i in reversed(range(n // 2))]
        pairs += [((div, i), (div, n - i)) for i in reversed(range(1, (n + 1) // 2))]
    holders = [control, *idle[:max(0, len(pairs) - 1) // 8]]  # ceil(k/8) - 1 copies
    fan = [cnot([(holders[i - (1 << (i.bit_length() - 1))], 1)], holders[i]) for i in range(1, len(holders))]
    gates = [cnot([((div, n - 1 - u), 0) for u in range(1 << j)], control), *fan]
    size, larger = divmod(len(pairs), len(holders))
    starts = [b * size + min(b, larger) for b in range(len(holders) + 1)]
    for b, holder in enumerate(holders):
        gates += _controlled_swaps(pairs[starts[b]:starts[b + 1]], holder)
    return gates + fan[::-1]


def build_degree(m: int) -> Circuit:
    """Compute deg(A) of a nonzero A into a ceil(log m)-wire register.

    The normalization leaves A's leading-zero count s = m-1-deg(A) in the
    register, with A shifted left by s over its s zero top wires, which
    is also A rotated left by s; a controlled rotation right by s, two
    reflections per stage, restores it.
    A NOT on every register wire gives 2^L-1-s, and adding m mod 2^L, one
    increment over deg[i..L-1] per set bit i, leaves deg(A).  No ancilla:
    ceil(log m) qubits beyond |A>.
    """
    if m < 2:
        raise BadParameter("the degree block needs m >= 2")
    L = log2_ceil(m)
    deg = register_wires("deg", L)
    gates = normalize_gates("a", m, deg) + controlled_rotation_gates("a", m, deg, "right")
    gates += [gate_not(w) for w in deg]
    gates += [g for i in range(L) if (m >> i) & 1 for g in _increment_gates(deg[i:])]
    return Circuit({"a": m, "deg": L}, gates, ("a",))


def build_conditional_xor(m: int) -> Circuit:
    """|q>|A>|B> <-> |q>|A>|B xor A if q=1>: m Toffoli gates."""
    if m < 1:
        raise BadParameter("conditional xor needs m >= 1")
    ctl = ("ctl", 0)
    return Circuit({"ctl": 1, "a": m, "b": m}, [cnot([(ctl, 1), (("a", i), 1)], ("b", i)) for i in range(m)], ("ctl", "a"))


@functools.lru_cache(maxsize=None)
def build_mul_accumulate(field: FieldSpec) -> Circuit:
    """|x>|y>|t> <-> |x>|y>|t xor (x*y mod f)>.

    Shift-and-add: at step i the y register holds y*z^i mod f and a bank of
    m Toffolis accumulates x_i * (y*z^i mod f) into t; the z-multiplications
    are undone afterwards, in reverse, so y comes back intact.  Each is a
    cyclic left rotation, then the modulus tail XORed in under the
    wrapped-around leading coefficient.  The rotation is a relabelling,
    not gates: coefficient j of y*z^i sits on wire y[(j - i) mod m], so
    only the tail's CNOTs are emitted, and after the m - 1 undos y is back
    on its own wires.  Costs m^2 Toffolis and 2(m-1)(wt(f)-2) CNOTs on 3m
    data wires, no ancillas; the modulus is classical.
    A z-multiplication writes only wt(f) - 2 of y's wires, so most of a
    bank's Toffolis can run beside the banks before it: `pipeline` orders
    the gates in layers, moving each only past gates it commutes with.
    That makes the m = 8 multiplier 29 deep, Toffoli-depth 22, against 78
    and 57 bank by bank, and the m = 163 pentanomial's 334 and 325, against
    25 927 and 25 765.  Built once per field.
    """
    m = field.m
    y = lambda j, i: ("y", (j - i) % m)  # the wire holding coefficient j of y*z^i
    tail = [j for j in range(1, m) if (field.modulus >> j) & 1]
    # mulz[i - 1] takes y*z^(i-1) to y*z^i
    mulz = [[cnot([(y(0, i), 1)], y(j, i)) for j in tail] for i in range(1, m)]
    gates = []
    for i in range(m):
        gates += [cnot([(("x", i), 1), (y(j, i), 1)], ("t", j)) for j in range(m)]
        gates += mulz[i] if i < m - 1 else []
    gates += [g for step in reversed(mulz) for g in reversed(step)]
    return Circuit({"x": m, "y": m, "t": m}, pipeline(gates), ("x", "y"))


# Every block by name: its builder and the integer sizes it takes, in order.
# `revgf2 synth` makes each size a required option; `verify.check_blocks` holds each oracle.
BLOCKS = {
    "swap": (build_swap, ()),
    "shiftl": (build_cyclic_shift, ("n",)),
    "shiftr": (lambda n: build_cyclic_shift(n, "right"), ("n",)),
    "cshift": (build_controlled_shift, ("n", "k")),
    "inc": (build_increment, ("w",)),
    "dec": (build_decrement, ("w",)),
    "deg": (build_degree, ("m",)),
    "cxor": (build_conditional_xor, ("m",)),
    "mulacc": (lambda m: build_mul_accumulate(default_field(m)), ("m",)),
}
