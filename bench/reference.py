"""Reference hit ratios, written apart from the simulator, and output checks.

The reference takes a catalog as plain dicts and recomputes every cell from
scratch: a breadth-first exploration that builds each level by
concatenating the width-limited related lists of the previous level and
dropping contents already seen, its own cabaret / baseline / reordered list
selection, its own position probabilities and hit-mass sum, and a mass
propagation over the watched content for sessions longer than two.  It
imports nothing from ``cabaret_sim``.  The cache sets are inputs: top
placements are ranked here, greedy placements are handed in.
"""

from __future__ import annotations

import csv
import json
import math

W_MAX = 50  # the provider's per-query cap, as in the README config
EXACT_TOL = 1e-9  # exact per-step rates against the reference
ORDER_TOL = 1e-12  # equal hit ratios summed in another order
SAMPLED_Z = 6.0  # sampled cells: standard errors allowed from the reference


def load_files(related_path, popularity_path):
    """Related lists and popularity weights from the two input files."""
    related: dict[str, tuple[str, ...]] = {}
    names: dict[str, str] = {}
    with open(related_path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                related[record["id"]] = tuple(names.setdefault(c, c) for c in record["related"])
    popularity: dict[str, float] = {}
    with open(popularity_path, newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        next(rows)
        for cid, weight in rows:
            popularity[cid] = float(weight)
    return close_leaves(related, popularity), popularity


def close_leaves(related, popularity):
    """Add every referenced or weighted id without a list as an empty list."""
    for lst in list(related.values()):
        for cid in lst:
            related.setdefault(cid, ())
    for cid in popularity:
        related.setdefault(cid, ())
    return related


def ranking(related, popularity):
    """All ids, heaviest first, ties by id."""
    return sorted(related, key=lambda c: (-popularity.get(c, 0.0), c))


def explore(seed, related, depth, width):
    seen = {seed}
    found: list[str] = []
    level = [seed]
    for _ in range(depth):
        candidates = [c for v in level for c in related[v][:width]]
        level = []
        for c in candidates:
            if c not in seen:
                seen.add(c)
                level.append(c)
        if not level:
            break
        found += level
    return found


def position_weights(demand, n):
    if demand == "uniform":
        return [1.0] * n
    alpha = float(demand.split(":", 1)[1])
    return [1.0 / i**alpha for i in range(1, n + 1)]


class Reference:
    """Exact per-step hit rates for every (recommender, cache, demand)."""

    def __init__(self, related, front_page, depth, width, list_size):
        self.related = related
        self.front_page = list(front_page)
        self.depth = depth
        self.width = min(width, W_MAX)
        self.n = list_size
        self._explored: dict[str, list[str]] = {}

    def _list(self, kind, content, cache):
        """The list ``kind`` shows after ``content``, with its cached flags."""
        n = self.n
        if kind == "cabaret":
            explored = self._explored.get(content)
            if explored is None:
                explored = explore(content, self.related, self.depth, self.width)
                self._explored[content] = explored
            hits = [c for c in explored if c in cache][:n]
            rest = [c for c in explored if c not in cache][: n - len(hits)]
            return hits + rest, [True] * len(hits) + [False] * len(rest)
        top = list(self.related[content][: min(n, W_MAX)])
        flags = [c in cache for c in top]
        if kind == "reordered":
            top = [c for c, f in zip(top, flags) if f] + [c for c, f in zip(top, flags) if not f]
            flags = sorted(flags, reverse=True)
        return top, flags

    def rates(self, kind, cache, demand, length):
        """Hit rate of each step 2..length."""
        weights = position_weights(demand, self.n)
        lists: dict[str, tuple[list[str], list[float], list[bool]]] = {}
        mass = {c: 1.0 / len(self.front_page) for c in self.front_page}
        rates = []
        for _ in range(length - 1):
            rate = 0.0
            after: dict[str, float] = {}
            for content, m in mass.items():
                entry = lists.get(content)
                if entry is None:
                    shown, flags = self._list(kind, content, cache)
                    head = weights[: len(shown)]
                    total = sum(head)
                    entry = (shown, [w / total for w in head], flags)
                    lists[content] = entry
                shown, probs, flags = entry
                for c, p, hit in zip(shown, probs, flags):
                    if hit:
                        rate += m * p
                    after[c] = after.get(c, 0.0) + m * p
            rates.append(rate)
            mass = after
        return rates


def check_rows(rows, reference, caches, sessions):
    """Problems with one ``results.csv``.

    ``rows`` are dicts of strings as read by ``csv.DictReader``; ``caches``
    maps (capacity, demand) to the cached set the cell ran against.
    Returns the problems of single cells, keyed by row index, and those of
    the table as a whole.
    """
    problems: dict[int, list[str]] = {i: [] for i in range(len(rows))}
    exact_k2: dict[tuple[str, int, str], float] = {}
    z_scores: list[float] = []
    for i, row in enumerate(rows):
        bad = problems[i]
        r, c, d, k = row["recommender"], int(row["cache_capacity"]), row["demand"], int(row["k"])
        chr_ = float(row["chr"])
        steps = [float(row[f"hit_rate_k{j}"]) for j in range(2, k + 1)]
        if not all(0.0 <= v <= 1.0 for v in [chr_, *steps]):
            bad.append("hit ratio outside [0, 1]")
        if abs(chr_ - math.fsum(steps) / len(steps)) > ORDER_TOL:
            bad.append("chr is not the mean of its per-step rates")
        ref = reference.rates(r, caches[(c, d)], d, k)
        if row["evaluator"] == "exact":
            if k == 2:
                exact_k2[(r, c, d)] = chr_
            for j, (got, want) in enumerate(zip(steps, ref), start=2):
                if abs(got - want) > EXACT_TOL:
                    bad.append(f"exact hit_rate_k{j} {got!r} differs from reference {want!r}")
        else:
            ref_chr = math.fsum(ref) / len(ref)
            se = max(float(row["chr_se"]), math.sqrt(ref_chr * (1.0 - ref_chr) / sessions))
            z = (chr_ - ref_chr) / se if se > 0 else (0.0 if chr_ == ref_chr else math.inf)
            z_scores.append(z)
            if abs(z) > SAMPLED_Z:
                bad.append(f"sampled chr {chr_!r} is {z:.1f} SE from reference {ref_chr!r}")
    for i, row in enumerate(rows):
        key = (row["recommender"], int(row["cache_capacity"]), row["demand"])
        if row["evaluator"] == "exact" and int(row["k"]) > 2 and key in exact_k2:
            if float(row["hit_rate_k2"]) != exact_k2[key]:
                problems[i].append("hit_rate_k2 differs from the K=2 chr")
        if row["evaluator"] == "exact" and row["k"] == "2":
            chain = [exact_k2.get((r, key[1], key[2])) for r in ("baseline", "reordered", "cabaret")]
            chain = [v for v in chain if v is not None]
            if any(a > b + ORDER_TOL for a, b in zip(chain, chain[1:])):
                problems[i].append("baseline <= reordered <= cabaret does not hold")
    table = []
    # The cells draw independent streams, so with no bias the mean of their
    # z-scores has a standard error of 1/sqrt(n); a shift shared by many
    # cells shows here long before any single cell reaches SAMPLED_Z.
    if z_scores:
        mean_z = sum(z_scores) / len(z_scores)
        if abs(mean_z) > SAMPLED_Z / math.sqrt(len(z_scores)):
            table.append(f"mean z-score of the sampled cells is {mean_z:.2f}")
    return {i: p for i, p in problems.items() if p}, table
