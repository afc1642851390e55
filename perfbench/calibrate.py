"""Host-speed reference for the timed metrics.

The benchmark runs on shared machines whose speed drifts by tens of
percent over a few seconds.  Every timed stretch of work is therefore
bracketed by a fixed pure-Python kernel that never changes with the
program, and the stretch's times are scaled by NOMINAL_S over the kernel's
measured time.  A reported time reads as what the host would have taken
if it ran the kernel in NOMINAL_S, so slow and fast moments of the host
cancel, while a change to revgf2 does not.

The kernel is a frozen basis-state simulation loop (dict-held registers,
bit tests and XORs over a fixed gate list), the kind of work revgf2 does,
so load from other tenants slows it about as much as it slows revgf2.
"""

from __future__ import annotations

import time

# Median kernel time on an Intel Xeon host (2 vCPUs, Python 3.11.7).
NOMINAL_S = 0.0006

_REGS = ("a", "b", "q", "s")
# (control, control, target) triples; a control is ((register, bit), polarity)
_GATES = tuple(
    (
        ((_REGS[i % 4], i % 8), i & 1),
        ((_REGS[(i + 1) % 4], (i * 3) % 8), 1),
        (_REGS[(i + 2) % 4], (i * 5) % 8),
    )
    for i in range(300)
)


def kernel() -> int:
    total = 0
    for start in range(8):
        bits = {"a": start, "b": 0xA5, "q": 0, "s": 3}
        for c1, c2, (reg, idx) in _GATES:
            fire = True
            for (r, i), polarity in (c1, c2):
                if (bits[r] >> i) & 1 != polarity:
                    fire = False
                    break
            if fire:
                bits[reg] ^= 1 << idx
        total += sum(dict(bits).values())
    return total


def speed_factor() -> float:
    """NOMINAL_S over the kernel's time right now."""
    start = time.perf_counter()
    kernel()
    return NOMINAL_S / (time.perf_counter() - start)
