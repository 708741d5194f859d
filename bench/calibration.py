"""A fixed pure-Python loop that measures how fast this host runs right now.

The loop shares no code with the simulator but does the same kinds of
work: it allocates about 60k small tuples of fresh strings into a dict,
walks them through a seen-set, sorts with a key function and accumulates
floats.  On the workloads in ``SCALED`` the benchmark times it between
passes and scales the run's times by ``REFERENCE_S`` over the mean loop
time of the run (see README.md).
"""

from __future__ import annotations

import time

#: Typical loop time on the host the reference figures in README.md come from.
REFERENCE_S = 0.32

#: Workloads whose times are scaled.  Over ten-seed sets the run's mean loop
#: time correlated with the unscaled ``sweep_s`` at 0.6 on the greedy sweep
#: and 0.83 on the sampled one, but at -0.08 on the 100k run, whose loading
#: and exploration are memory-bound; scaling that run only added the loop's
#: own noise.
SCALED = ("readme-exact-greedy", "readme-sampled-top")


def loop_seconds(n: int = 60_000) -> float:
    """Seconds one pass of the fixed loop takes."""
    start = time.perf_counter()
    table = {}
    for i in range(n):
        key = "n%07d" % ((i * 7919) % n)
        table[key] = tuple("m%07d" % ((i + j) % n) for j in range(0, 40, 8))
    seen = set()
    order = []
    for key in list(table)[: n // 2]:
        for other in table[key]:
            if other not in seen:
                seen.add(other)
                order.append(other)
    ranked = sorted(order, key=lambda s: (s[-3:], s))
    total = 0.0
    for i, _ in enumerate(ranked):
        total += i * 0.5
    return time.perf_counter() - start
