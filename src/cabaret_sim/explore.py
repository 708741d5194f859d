"""Level-order exploration of the relation graph around a seed content.

The exploration queries the oracle for the seed's related list, then for
the related lists of every newly discovered content, level by level, up to
a fixed depth.  Contents are recorded at their first discovery only;
re-discovered contents are skipped and are not expanded again, so the
number of oracle queries is bounded by one plus the number of contents
discovered before the final level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .catalog import ContentId, RelationOracle
from .errors import ParameterError


@dataclass(frozen=True)
class BfsParams:
    """Exploration depth and per-query width."""

    depth: int
    width: int

    def __post_init__(self):
        if self.depth < 1:
            raise ParameterError(f"depth must be >= 1, got {self.depth}")
        if self.width < 1:
            raise ParameterError(f"width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class ExplorationList:
    """Ordered exploration result with per-entry discovery depth.

    Entries are unique, never include the seed, and their depth annotations
    are non-decreasing along the list.
    """

    seed: ContentId
    entries: tuple[ContentId, ...]
    depths: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)


@cache
def _first_level(length: int) -> tuple[int, ...]:
    """The depths of a depth-1 exploration of ``length`` entries, one tuple per length."""
    return (1,) * length


def bfs(seed: ContentId, params: BfsParams, oracle: RelationOracle) -> ExplorationList:
    """Explore contents related to ``seed`` in level order.

    Level 1 is the seed's own related list in oracle order, taken as it
    is: a catalog rejects a related list that repeats an entry or holds
    its own content.  Level ``d + 1`` appends, for each level-``d``
    content in list order, its related list with already-seen contents
    (including the seed) skipped.
    """
    frontier = oracle.related(seed, params.width)
    if params.depth == 1:
        return ExplorationList(seed, frontier, _first_level(len(frontier)))
    entries = list(frontier)
    depths = [1] * len(entries)
    seen = {seed, *frontier}
    for depth in range(2, params.depth + 1):
        next_frontier: list[ContentId] = []
        for content in frontier:
            for found in oracle.related(content, params.width):
                if found in seen:
                    continue
                seen.add(found)
                entries.append(found)
                depths.append(depth)
                next_frontier.append(found)
        if not next_frontier:
            break
        frontier = next_frontier
    return ExplorationList(seed, tuple(entries), tuple(depths))
