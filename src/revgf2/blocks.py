"""Builders for the reversible building blocks: SWAP, shifts, counters,
the leading-zero count and degree computation, conditional XOR, and the
modular multiply-accumulate.

Count and degree registers for an m-wire value have ceil(log2 m) wires.
They hold 0..m-1, every degree and every leading-zero count of a nonzero
m-wire value.  They hold m only when m is not a power of two: at m = 2^k,
m needs ceil(log2(m+1)) = k+1 bits.
"""

from __future__ import annotations

import math

from .circuit import Circuit, Gate, cnot, gate_not, swap
from .errors import BadParameter
from .field import FieldSpec, default_field


def log2_ceil(m: int) -> int:
    """ceil(log2 m); the degree-register width for GF(2^m)."""
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
    d = 0, in two layers of disjoint swaps.  The cycles go one after the
    other: when the swaps share a control, that makes the m = 163 Euclid
    iteration 29 807 deep, against 30 113 with every cycle's first
    reflection before any second one.
    """
    if direction not in ("left", "right"):
        raise BadParameter(f"direction must be left or right, not {direction!r}")
    d = amount % n
    g = math.gcd(n, d)  # gcd(n, 0) = n: n one-wire cycles, no steps
    cycles = ([(reg, (c + t * d) % n) for t in range(n // g)] for c in range(g))
    pairs = [(part[i], part[-1 - i]) for cycle in cycles for part in (cycle, cycle[1:]) for i in range(len(part) // 2)]
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
        gates += [cnot([(w2, 1)], w1), cnot([(control, 1), (w1, 1)], w2), cnot([(w2, 1)], w1)]
    return gates


def controlled_rotation_stage(data: str, n: int, shift: str, j: int, direction: str) -> list[Gate]:
    """Stage j of a rotation by a register's value: rotate the n-wire register
    `data` by 2^j when bit j of `shift` is 1.  Its n - gcd(n, 2^j mod n) SWAPs,
    two reflections per cycle, are each a controlled swap on that one wire
    (no ancillas)."""
    return _controlled_swaps(_rotation_pairs(data, n, 1 << j, direction), (shift, j))


def controlled_rotation_gates(data: str, n: int, shift: str, k: int, direction: str) -> list[Gate]:
    """Rotate the n-wire register `data` by the value of the k-wire register
    `shift`: its stages j = 0..k-1 in order."""
    return [g for j in range(k) for g in controlled_rotation_stage(data, n, shift, j, direction)]


def build_controlled_shift(n: int, k: int) -> Circuit:
    """|theta>|s> <-> |theta rotated left by s>|s> with an n-wire data
    register and a k-wire shift register."""
    if n < 2 or k < 1:
        raise BadParameter("controlled shift needs n >= 2 and k >= 1")
    return Circuit({"data": n, "shift": k}, controlled_rotation_gates("data", n, "shift", k, "left"), ("shift",))


def _increment_gates(wires) -> list[Gate]:
    """Gate list for +1 mod 2^len(wires), least significant wire first."""
    gates = [cnot([(w, 1) for w in wires[:j]], wires[j]) for j in range(len(wires) - 1, 0, -1)]
    return gates + [gate_not(wires[0])]


def build_increment(w: int) -> Circuit:
    """|k> <-> |k+1> on a w-wire register plus one ancilla that holds the
    most-significant result bit (and stays 0 for k <= 2^w - 2)."""
    if w < 1:
        raise BadParameter("increment needs w >= 1")
    return Circuit({"k": w, "anc": 1}, _increment_gates([("k", i) for i in range(w)] + [("anc", 0)]))


def build_decrement(w: int) -> Circuit:
    """The increment circuit run backwards; for inputs in [1, 2^w - 1] the
    ancilla returns to 0, so one ancilla serves every decrement in a row."""
    if w < 1:
        raise BadParameter("decrement needs w >= 1")
    return Circuit({"k": w, "anc": 1}, reversed(_increment_gates([("k", i) for i in range(w)] + [("anc", 0)])))


def normalize_gates(div: str, n: int, s: str) -> list[Gate]:
    """Binary-search normalization of a nonzero n-wire register `div` with
    the ceil(log n)-wire register `s` at 0 (Warren, Hacker's Delight,
    section 5-3): for j = L-1 down to 0, NOT s_j under 0-controls on the
    top 2^j wires of div, then shift div left by 2^j on s_j.  Each stage
    leaves fewer than 2^j leading zeros, so s ends as n-1-deg(div) and
    div's top wire at 1.  A stage only fires when div's top 2^j wires are
    0, so it shifts rather than rotates: the descending controlled-swap
    chain (i - 2^j, i) for i = n-1 down to 2^j, n - 2^j swaps where a
    rotation needs n - gcd(n, 2^j).  The gates reversed undo both."""
    L = log2_ceil(n)
    gates = []
    for j in reversed(range(L)):
        gates.append(cnot([((div, n - 1 - u), 0) for u in range(1 << j)], (s, j)))
        chain = [((div, i - (1 << j)), (div, i)) for i in range(n - 1, (1 << j) - 1, -1)]
        gates.extend(_controlled_swaps(chain, (s, j)))
    return gates


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
    deg = [("deg", j) for j in range(L)]
    gates = normalize_gates("a", m, "deg") + controlled_rotation_gates("a", m, "deg", L, "right")
    gates += [gate_not(w) for w in deg]
    gates += [g for i in range(L) if (m >> i) & 1 for g in _increment_gates(deg[i:])]
    return Circuit({"a": m, "deg": L}, gates, ("a",))


def build_conditional_xor(m: int) -> Circuit:
    """|q>|A>|B> <-> |q>|A>|B xor A if q=1>: m Toffoli gates."""
    if m < 1:
        raise BadParameter("conditional xor needs m >= 1")
    ctl = ("ctl", 0)
    return Circuit({"ctl": 1, "a": m, "b": m}, [cnot([(ctl, 1), (("a", i), 1)], ("b", i)) for i in range(m)], ("ctl", "a"))


def build_mul_accumulate(field: FieldSpec) -> Circuit:
    """|x>|y>|t> <-> |x>|y>|t xor (x*y mod f)>.

    Shift-and-add: at step i the y register holds y*z^i mod f and a bank of
    m Toffolis accumulates x_i * (y*z^i mod f) into t; the z-multiplications
    are undone afterwards, in reverse, so y comes back intact.  Each is a
    cyclic left rotation, then the modulus tail XORed in under the
    wrapped-around leading coefficient.  The rotation is a relabelling,
    not gates: coefficient j of y*z^i sits on wire y[(j - i) mod m], so
    only the tail's CNOTs are emitted, and after the m - 1 undos y is back
    on its own wires.  Within a bank, the Toffolis that read wires the next
    z-multiplication touches go first and those that read wires the
    previous one touched go last, so the CNOTs overlap the banks.  Costs
    m^2 Toffolis and 2(m-1)(wt(f)-2) CNOTs on 3m data wires, no ancillas;
    the modulus is classical.
    """
    m = field.m
    y = lambda j, i: ("y", (j - i) % m)  # the wire holding coefficient j of y*z^i
    tail = [j for j in range(1, m) if (field.modulus >> j) & 1]
    # mulz[i - 1] takes y*z^(i-1) to y*z^i
    mulz = [[cnot([(y(0, i), 1)], y(j, i)) for j in tail] for i in range(1, m)]
    # touched[i]: the wires of the z-multiplication into bank i; none before bank 0 or after bank m - 1
    touched = [set()] + [{w for g in step for w in g.wires()} for step in mulz] + [set()]
    gates = []
    for i in range(m):
        order = sorted(range(m), key=lambda j: (y(j, i) in touched[i]) - (y(j, i) in touched[i + 1]))
        gates += [cnot([(("x", i), 1), (y(j, i), 1)], ("t", j)) for j in order]
        gates += mulz[i] if i < m - 1 else []
    gates += [g for step in reversed(mulz) for g in reversed(step)]
    return Circuit({"x": m, "y": m, "t": m}, gates, ("x", "y"))


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
