"""A fixed pure-Python reference kernel that measures the host's speed.

The benchmark runs on a shared host whose speed drifts: the same code runs
1.3 to 1.8 times slower for spells of seconds to minutes, and the spells
move every timing of a run together.  Each timed op is therefore paired
with a run of this kernel just before it, and the op's wall time is
reported at the nominal host speed::

    corrected = wall * NOMINAL_S / (median kernel time around the op)

The kernel does the kind of work pmegen's derivations do (build, canonicalise
and serialise small expression trees as tuples and strings, count them in a
dict) and imports nothing from pmegen, so no change to the program moves it.
"""

from __future__ import annotations

import random
import statistics
import time

# the kernel's wall time on a 2-CPU shared Xeon host under Python 3.11
# outside a slow spell (inside one it takes 2.4 to 3.1 ms); corrected
# times are wall times on that host at that speed
NOMINAL_S = 0.0016
# the kernel times on each side of an op that its speed estimate uses
WINDOW = 3


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice("ABCDEFGH")
    op = rng.choice("+*-")
    return (op,) + tuple(_tree(rng, depth - 1) for _ in range(rng.randint(1, 3)))


def _canonical(tree):
    if isinstance(tree, str):
        return tree
    kids = [_canonical(k) for k in tree[1:]]
    if tree[0] == "+":
        kids.sort(key=repr)
    return (tree[0],) + tuple(kids)


def _serialize(tree) -> str:
    if isinstance(tree, str):
        return tree
    return "(" + tree[0].join(_serialize(k) for k in tree[1:]) + ")"


def kernel() -> int:
    """The same fixed work on every call."""
    rng = random.Random(7)
    seen: dict[str, int] = {}
    for _ in range(20):
        text = _serialize(_canonical(_tree(rng, 6)))
        seen[text] = seen.get(text, 0) + len(text)
    return len(seen)


def time_kernel() -> float:
    """Wall seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def host_speed(samples: list[float]) -> float:
    """Kernel time over its nominal time: 1.0 at nominal speed, 1.5 when the
    host runs the same code 1.5 times slower."""
    return statistics.median(samples) / NOMINAL_S


def corrected(walls: list[float], kernels: list[float]) -> list[float]:
    """Each wall time at nominal host speed.

    ``kernels[i]`` is the kernel time measured just before ``walls[i]``;
    the speed for op ``i`` is the median of the kernel times within
    ``WINDOW`` ops of it, so that one disturbed kernel call does not skew
    its op.
    """
    out = []
    for i, wall in enumerate(walls):
        near = kernels[max(0, i - WINDOW) : i + WINDOW + 1]
        out.append(wall / host_speed(near))
    return out
