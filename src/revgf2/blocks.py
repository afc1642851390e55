"""Builders for the reversible building blocks: SWAP, shifts, counters,
degree computation, conditional XOR, and the modular multiply-accumulate.

Width conventions follow the usual ceil(log m) collapse: the same
ceil(log2 m)-wire register serves for values up to m-1, m, or m+1.
"""

from __future__ import annotations

import math

from .circuit import Circuit, Gate, cnot, gate_not, swap
from .errors import BadParameter
from .field import FieldSpec


def log2_ceil(m: int) -> int:
    """ceil(log2 m); the degree-register width for GF(2^m)."""
    if m < 1:
        raise BadParameter("log2_ceil needs a positive argument")
    return max(1, (m - 1).bit_length())


def build_swap() -> Circuit:
    """Two-wire bit transposition from 3 CNOT gates."""
    c = Circuit({"q": 2})
    c.add(cnot([(("q", 0), 1)], ("q", 1)))
    c.add(cnot([(("q", 1), 1)], ("q", 0)))
    c.add(cnot([(("q", 0), 1)], ("q", 1)))
    return c


def _rotation_pairs(reg: str, n: int, amount: int, direction: str):
    """Wire pairs whose swaps, in order, rotate an n-wire register
    cyclically by `amount` positions.

    "left" rotates toward higher indices (multiply by z); "right" is the
    inverse rotation.  The rotation by d = amount mod n walks each of its
    gcd(n, d) cycles c, c+d, c+2d, ... (mod n) with one swap per step,
    descending for "left" and ascending for "right": n - gcd(n, d) swaps
    in all, none for d = 0, and the adjacent-wire chain for d = 1.
    """
    if direction not in ("left", "right"):
        raise BadParameter(f"direction must be left or right, not {direction!r}")
    d = amount % n
    g = math.gcd(n, d)  # gcd(n, 0) = n: n one-wire cycles, no steps
    walks = ([((reg, (c + t * d) % n), (reg, (c + t * d + d) % n)) for t in range(n // g - 1)]
             for c in range(g))
    return [pair for walk in walks for pair in (reversed(walk) if direction == "left" else walk)]


def rotation_gates(reg: str, n: int, amount: int, direction: str) -> list[Gate]:
    """Cyclic rotation of an n-wire register by `amount` positions:
    n - gcd(n, amount mod n) SWAPs along the rotation's cycles."""
    return [swap(w1, w2) for w1, w2 in _rotation_pairs(reg, n, amount, direction)]


def build_cyclic_shift(n: int, direction: str = "left") -> Circuit:
    """Cyclic rotation of an n-wire register by one position (n-1 SWAPs)."""
    if n < 2:
        raise BadParameter("cyclic shift needs n >= 2")
    c = Circuit({"r": n})
    c.extend(rotation_gates("r", n, 1, direction))
    return c


def controlled_rotation_stage(data: str, n: int, shift: str, j: int, direction: str) -> list[Gate]:
    """Stage j of a rotation by a register's value: rotate the n-wire register
    `data` by 2^j when bit j of `shift` is 1.  Its n - gcd(n, 2^j mod n) SWAPs
    are each a controlled swap on that one wire (no ancillas)."""
    gates = []
    for w1, w2 in _rotation_pairs(data, n, 1 << j, direction):
        # CSWAP as CNOT / Toffoli / CNOT: only the middle gate carries the control
        gates += [cnot([(w2, 1)], w1), cnot([((shift, j), 1), (w1, 1)], w2), cnot([(w2, 1)], w1)]
    return gates


def controlled_rotation_gates(data: str, n: int, shift: str, k: int, direction: str) -> list[Gate]:
    """Rotate the n-wire register `data` by the value of the k-wire register
    `shift`: its stages j = 0..k-1 in order."""
    return [g for j in range(k) for g in controlled_rotation_stage(data, n, shift, j, direction)]


def build_controlled_shift(n: int, k: int, direction: str = "left") -> Circuit:
    """|theta>|s> <-> |theta rotated by s>|s> with an n-wire data register
    and a k-wire shift register."""
    if n < 2 or k < 1:
        raise BadParameter("controlled shift needs n >= 2 and k >= 1")
    c = Circuit({"data": n, "shift": k})
    c.extend(controlled_rotation_gates("data", n, "shift", k, direction))
    return c


def _increment_gates(reg: str, w: int, anc: str, extra_controls=()):
    """Gate list for +1 mod 2^(w+1) on reg[0..w-1] with anc[0] as the
    most-significant result bit.  Optional extra controls condition the
    whole increment (used by the degree circuit's gated decrements)."""
    extra = list(extra_controls)
    gates = []
    for j in range(w, 0, -1):
        target = (anc, 0) if j == w else (reg, j)
        controls = extra + [((reg, i), 1) for i in range(j)]
        gates.append(cnot(controls, target))
    if extra:
        gates.append(cnot(extra, (reg, 0)))
    else:
        gates.append(gate_not((reg, 0)))
    return gates


def build_increment(w: int) -> Circuit:
    """|k> <-> |k+1> on a w-wire register plus one ancilla that holds the
    most-significant result bit (and stays 0 for k <= 2^w - 2)."""
    if w < 1:
        raise BadParameter("increment needs w >= 1")
    c = Circuit({"k": w, "anc": 1})
    c.extend(_increment_gates("k", w, "anc"))
    return c


def build_decrement(w: int) -> Circuit:
    """The increment circuit run backwards; for inputs in [1, 2^w - 1] the
    ancilla returns to 0, so one ancilla serves every decrement in a row."""
    if w < 1:
        raise BadParameter("decrement needs w >= 1")
    c = Circuit({"k": w, "anc": 1})
    c.extend(reversed(_increment_gates("k", w, "anc")))
    return c


def build_degree(m: int) -> Circuit:
    """Compute deg(A) of a nonzero A into a ceil(log m)-wire register.

    The degree register is initialized to m-1, then one gated decrement per
    prefix length t = 1..m-1, firing when the top t coefficients of A are
    all zero (0-controls), counts it down to deg(A).  One shared ancilla
    serves all the decrements, so the block costs ceil(log m)+1 qubits
    beyond |A>.
    """
    if m < 2:
        raise BadParameter("the degree block needs m >= 2")
    L = log2_ceil(m)
    c = Circuit({"a": m, "deg": L, "anc": 1})
    init = m - 1
    for j in range(L):
        if (init >> j) & 1:
            c.add(gate_not(("deg", j)))
    for t in range(1, m):
        prefix_zero = [(("a", m - 1 - u), 0) for u in range(t)]
        c.extend(reversed(_increment_gates("deg", L, "anc", extra_controls=prefix_zero)))
    return c


def build_conditional_xor(m: int) -> Circuit:
    """|q>|A>|B> <-> |q>|A>|B xor A if q=1>: m Toffoli gates."""
    if m < 1:
        raise BadParameter("conditional xor needs m >= 1")
    c = Circuit({"ctl": 1, "a": m, "b": m})
    for i in range(m):
        c.add(cnot([(("ctl", 0), 1), (("a", i), 1)], ("b", i)))
    return c


def _times_z_gates(reg: str, m: int, modulus: int):
    """In-place y <- y*z mod f on an m-wire register: cyclic left rotation,
    then XOR the (classical) modulus tail conditioned on the wrapped-around
    leading bit."""
    gates = rotation_gates(reg, m, 1, "left")
    for j in range(1, m):
        if (modulus >> j) & 1:
            gates.append(cnot([((reg, 0), 1)], (reg, j)))
    return gates


def build_mul_accumulate(field: FieldSpec) -> Circuit:
    """|x>|y>|t> <-> |x>|y>|t xor (x*y mod f)>.

    Shift-and-add: at step i the y register holds y*z^i mod f and a bank of
    Toffolis accumulates x_i * (y*z^i mod f) into t; the z-multiplications
    are undone afterwards so y comes back intact.  Costs 3m data wires and
    no ancillas; the modulus is classical.
    """
    m = field.m
    c = Circuit({"x": m, "y": m, "t": m})
    mulz = _times_z_gates("y", m, field.modulus)
    for i in range(m):
        for j in range(m):
            c.add(cnot([(("x", i), 1), (("y", j), 1)], ("t", j)))
        if i < m - 1:
            c.extend(mulz)
    for _ in range(m - 1):
        c.extend(reversed(mulz))
    return c


BLOCK_BUILDERS = {
    "swap": lambda args: build_swap(),
    "shiftl": lambda args: build_cyclic_shift(args["n"], "left"),
    "shiftr": lambda args: build_cyclic_shift(args["n"], "right"),
    "cshift": lambda args: build_controlled_shift(args["n"], args["k"]),
    "inc": lambda args: build_increment(args["w"]),
    "dec": lambda args: build_decrement(args["w"]),
    "deg": lambda args: build_degree(args["m"]),
    "cxor": lambda args: build_conditional_xor(args["m"]),
    "mulacc": lambda args: build_mul_accumulate(args["field"]),
}
