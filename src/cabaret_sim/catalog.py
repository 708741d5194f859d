"""Content catalog, ordered relation oracle, and dataset ingestion.

A catalog maps every content id to an ordered list of related content ids
(the provider's recommendation order) and to a non-negative popularity
weight.  Catalogs are immutable after construction and safe to share across
threads.  A :class:`RelationOracle` query returns at most :data:`W_MAX`
entries of a list, the provider API's page size.

``Catalog(related, popularity)`` builds a catalog from mappings and
checks every rule.  ``Catalog.from_arrays(ids, lists, weights)`` builds one
from a matrix of row numbers, as the synthetic generator does: it checks
the same rules with numpy.  ``load_dataset`` builds one from files: it
keeps :func:`load_related_file`'s mapping, adds the leaves to it, reads
the popularity file into a map keyed by the mapping's own ids, and keeps
that map's weights as an array once every check has passed.  The tests
hold both to the mapping constructor as their oracle.

Every constructor keeps the weights as one read-only float64 array whose
rows follow the mapping's key order: contents are ranked on the array,
and only :meth:`Catalog.popularity_of` maps an id to its row.

``load_dataset`` checks each rule once, in this order.  The related-file
parser checks each line's record and each distinct entry, on the first
line that holds it: a string, and not empty.  The popularity reader checks
each row.  Then each list is checked for its own id or a repeat, after
the parse and not inside it, so that the parse holds no set per line; the
error names the list's line.

File formats
------------
Related lists are stored as JSON lines, one record per line::

    {"id": "v42", "related": ["v7", "v13", ...]}

Array order is the provider's recommendation order.  Popularity is a CSV
file with header ``id,weight``; ids holding commas, quotes or line breaks
are quoted.
The canonical on-disk form sorts records by id and preserves related
arrays verbatim; ``save_dataset`` always emits the canonical form.
A loaded catalog holds one string object per id: every occurrence of an
id, as a key or inside any related list, is the same object.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain, filterfalse, islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .csvio import write_csv
from .errors import (
    DatasetFormatError,
    DuplicateContentError,
    ParameterError,
    UnknownContentError,
    utf8_errors,
)

ContentId = str

#: Entries one related-list query returns at most: the provider API's page size.
W_MAX = 50

# Rows that ``Catalog.from_arrays`` checks and converts at a time.
_BLOCK = 256


class Catalog:
    """Immutable content catalog: relations plus popularity weights.

    Ids referenced inside a related list but never defined themselves are
    added as leaf contents (empty related list, zero popularity), so a
    frontier-truncated crawl loads cleanly.

    Args:
        related: mapping from content id to its ordered related ids; every
            id is a non-empty string.
        popularity: optional mapping from content id to a finite weight
            >= 0.  Ids present here but not in ``related`` also become
            leaves.
    """

    __slots__ = ("_related", "_weights", "_rows")

    def __init__(
        self,
        related: Mapping[ContentId, Sequence[ContentId]],
        popularity: Mapping[ContentId, float] | None = None,
    ):
        rel: dict[ContentId, tuple[ContentId, ...]] = {}
        for cid, lst in related.items():
            if isinstance(lst, str):
                raise ParameterError(f"related list of {cid!r} is a string, not a sequence of ids")
            entries = tuple(lst)
            try:
                _check_related_list(cid, entries)
            except TypeError:
                raise ParameterError(f"related list of {cid!r} holds an unhashable id") from None
            # A saved empty id could not be loaded again.
            if cid == "":
                raise ParameterError(f"content id must be non-empty, got {cid!r}")
            if "" in entries:
                raise ParameterError(f"related list of {cid!r} holds an empty id")
            rel[cid] = entries
        _add_leaves(rel, chain.from_iterable(rel.values()))
        pop: dict[ContentId, float] = {}
        if popularity is not None:
            for cid, weight in popularity.items():
                if cid == "":
                    raise ParameterError(f"popularity id must be non-empty, got {cid!r}")
                try:
                    w = float(weight)
                except (TypeError, ValueError, OverflowError):
                    raise ParameterError(
                        f"popularity weight for {cid!r} must be a number, got {weight!r}"
                    ) from None
                if not (math.isfinite(w) and w >= 0):
                    raise ParameterError(
                        f"popularity weight for {cid!r} must be finite and >= 0, got {w}"
                    )
                if cid not in rel:
                    rel[cid] = ()
                pop[cid] = w
        # Every entry and popularity id is a key by now.
        if not set(map(type, rel)) <= {str}:
            for cid in rel:
                if not isinstance(cid, str):
                    raise ParameterError(f"content id must be a string, got {cid!r}")
        self._set(rel, np.fromiter((pop.get(cid, 0.0) for cid in rel), np.float64, len(rel)))

    @classmethod
    def from_arrays(
        cls, ids: Sequence[ContentId], lists: np.ndarray, weights: np.ndarray
    ) -> Catalog:
        """``Catalog(dict(zip(ids, rows)), dict(zip(ids, weights)))``, built with numpy.

        Row ``i`` of the ``(n, W)`` integer matrix ``lists`` holds the row
        numbers of ``ids[i]``'s related list, and ``weights[i]`` is its
        weight.  Every rule of the mapping form is checked, with its error
        type and, for the first bad row, its message; ids must also be
        distinct and every entry in range, which a mapping cannot break.
        Keys keep ``ids`` order, every entry is its key's object, and the
        catalog keeps a copy of ``weights``.
        """
        ids = list(ids)
        n = len(ids)
        if not set(map(type, ids)) <= {str}:
            bad = next(cid for cid in ids if not isinstance(cid, str))
            raise ParameterError(f"content id must be a string, got {bad!r}")
        if len(set(ids)) != n:
            raise ParameterError("ids must be distinct")
        lists = np.asarray(lists)
        if lists.ndim != 2 or len(lists) != n or lists.dtype.kind not in "iu":
            raise ParameterError(
                f"lists must be an integer matrix of {n} rows, got {lists.dtype} {lists.shape}"
            )
        if lists.size and not (lists.min() >= 0 and lists.max() < n):
            raise ParameterError(f"related-list entries must be row numbers in [0, {n})")
        try:
            weights = np.array(weights, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ParameterError("weights must be numbers") from None
        if weights.shape != (n,):
            raise ParameterError(f"weights must hold {n} numbers, got shape {weights.shape}")
        names = np.array(ids, dtype=object)
        empty = ids.index("") if "" in ids else -1
        rel: dict[ContentId, tuple[ContentId, ...]] = {}
        for start in range(0, n, _BLOCK):
            block = lists[start : start + _BLOCK]
            rows = np.arange(start, start + len(block))
            ordered = np.sort(block, axis=1)
            bad = (
                (block == rows[:, None]).any(axis=1)
                | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
                | (rows == empty)
                | (block == empty).any(axis=1)
            )
            if bad.any():
                # The mapping form's row checks, on the first bad row.
                i = start + int(bad.argmax())
                cid = ids[i]
                _check_related_list(cid, tuple(names[lists[i]].tolist()))
                if cid == "":
                    raise ParameterError(f"content id must be non-empty, got {cid!r}")
                raise ParameterError(f"related list of {cid!r} holds an empty id")
            rel.update(zip(ids[start : start + _BLOCK], map(tuple, names[block].tolist())))
        bad = ~(np.isfinite(weights) & (weights >= 0))
        if bad.any():
            i = int(bad.argmax())
            cid, w = ids[i], float(weights[i])
            raise ParameterError(f"popularity weight for {cid!r} must be finite and >= 0, got {w}")
        catalog = cls.__new__(cls)
        catalog._set(rel, weights)
        return catalog

    def _set(self, related: dict[ContentId, tuple[ContentId, ...]], weights: np.ndarray) -> None:
        """Keep checked ``related`` and ``weights``, row ``i`` the weight of key ``i``."""
        weights.flags.writeable = False
        self._related = related
        self._weights = weights
        # id -> row, built on the first ``popularity_of``.
        self._rows: dict[ContentId, int] | None = None

    def __len__(self) -> int:
        return len(self._related)

    def __contains__(self, content_id: object) -> bool:
        return content_id in self._related

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Catalog):
            return NotImplemented
        return self._related == other._related and _weight_map(self) == _weight_map(other)

    def ids(self) -> list[ContentId]:
        """All content ids in sorted order."""
        return sorted(self._related)

    def related_list(self, content_id: ContentId) -> tuple[ContentId, ...]:
        """The full stored related list of ``content_id``."""
        try:
            return self._related[content_id]
        except KeyError:
            raise UnknownContentError(content_id) from None

    def popularity_of(self, content_id: ContentId) -> float:
        if self._rows is None:
            self._rows = dict(zip(self._related, range(len(self._related))))
        try:
            return float(self._weights[self._rows[content_id]])
        except KeyError:
            raise UnknownContentError(content_id) from None


def _weight_map(catalog: Catalog) -> dict[ContentId, float]:
    return dict(zip(catalog._related, catalog._weights.tolist()))


def _check_related_list(cid: ContentId, entries: tuple[ContentId, ...]) -> None:
    """Raise naming the first entry of ``entries`` that is ``cid`` itself or a repeat."""
    distinct = set(entries)
    if cid not in distinct and len(distinct) == len(entries):
        return
    seen = set()
    for entry in entries:
        if entry == cid:
            raise DatasetFormatError(
                f"related list of {cid!r} contains the content itself", content_id=cid
            )
        if entry in seen:
            raise DatasetFormatError(
                f"related list of {cid!r} contains duplicate entry {entry!r}", content_id=cid
            )
        seen.add(entry)


def _add_leaves(
    related: dict[ContentId, tuple[ContentId, ...]], referenced: Iterable[ContentId]
) -> None:
    """Add each id of ``referenced`` that no key is, as a leaf, in order of first reference."""
    related.update(dict.fromkeys(filterfalse(related.__contains__, referenced), ()))


@dataclass(frozen=True)
class PopularityRegion:
    """The most popular contents of a region, most popular first.

    ``truncated`` is set when more contents were requested than the catalog
    holds.  An id that appears twice raises ``ParameterError``.
    """

    ids: tuple[ContentId, ...]
    truncated: bool = False

    def __post_init__(self) -> None:
        seen: set[ContentId] = set()
        for cid in self.ids:
            if cid in seen:
                raise ParameterError(f"region repeats content {cid!r}")
            seen.add(cid)

    def __len__(self) -> int:
        return len(self.ids)


class RelationOracle:
    """Read-only query surface over a catalog's ordered related lists.

    Every query returns a prefix of the stored list, capped at
    :data:`W_MAX` entries (the provider API's page size).  Identical
    queries always return identical lists.
    """

    __slots__ = ("catalog",)

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def related(self, content_id: ContentId, width: int) -> tuple[ContentId, ...]:
        """First ``min(width, W_MAX, len)`` related ids of ``content_id``.

        Raises:
            UnknownContentError: if the id is not in the catalog.
            ParameterError: if ``width < 1``.
        """
        if width < 1:
            raise ParameterError(f"width must be >= 1, got {width}")
        return self.catalog.related_list(content_id)[: min(width, W_MAX)]


def top_popular(catalog: Catalog, count: int) -> PopularityRegion:
    """The ``count`` highest-weight contents, ties broken by id order.

    ``np.partition`` finds the ``count``-th highest weight, and only the
    rows at or above it, ties at the cut included, are sorted by
    ``(-weight, id)``; that key orders the contents totally, so the result
    is the head of a full sort.  When ``count`` exceeds the catalog size
    the result is truncated to the whole catalog and flagged.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    weights = catalog._weights
    cut = len(weights) - count
    if cut > 0:
        rows = np.flatnonzero(weights >= np.partition(weights, cut)[cut])
    else:
        rows = np.arange(len(weights))
    ids = list(catalog._related)
    ranked = sorted(zip((-weights[rows]).tolist(), map(ids.__getitem__, rows.tolist())))
    return PopularityRegion(
        tuple(cid for _, cid in ranked[:count]), truncated=count > len(catalog)
    )


_NOT_STRINGS = '"related" must be an array of strings'


def _parse_related_line(line: str, lineno: int) -> tuple[ContentId, list]:
    """The id and the raw related array of one line; entries are unchecked."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON ({exc.msg})", line=lineno) from None
    if not isinstance(record, dict):
        raise DatasetFormatError("record is not an object", line=lineno)
    if "id" not in record or "related" not in record:
        raise DatasetFormatError('record must have "id" and "related" keys', line=lineno)
    cid = record["id"]
    rel = record["related"]
    if not isinstance(cid, str) or not cid:
        raise DatasetFormatError('"id" must be a non-empty string', line=lineno)
    if not isinstance(rel, list):
        raise DatasetFormatError(_NOT_STRINGS, line=lineno)
    return cid, rel


def load_related_file(path: str) -> dict[ContentId, tuple[ContentId, ...]]:
    """Parse a JSON-lines related-lists file into an ordered mapping.

    Every occurrence of an id, as a key or in a list, is one shared string
    object, so the parser's strings are freed line by line.  Each distinct
    entry is checked once, on the first line that holds it.
    """
    return _read_related(path)[0]


def _read_related(path: str) -> tuple[dict[ContentId, tuple[ContentId, ...]], dict]:
    """The mapping, and every id's shared object in order of first reference."""
    related: dict[ContentId, tuple[ContentId, ...]] = {}
    # Every key of ``canon`` is a non-empty string, so an entry that is not
    # one is always new to it and is checked on its line.
    canon: dict[ContentId, ContentId] = {}
    with open(path, encoding="utf-8") as handle, utf8_errors(path, DatasetFormatError):
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            cid, rel = _parse_related_line(line, lineno)
            known = len(canon)
            try:
                entries = tuple(map(canon.setdefault, rel, rel))
            except TypeError:  # an array or object entry cannot be a key
                raise DatasetFormatError(_NOT_STRINGS, line=lineno) from None
            if len(canon) > known:
                new = list(islice(reversed(canon), len(canon) - known))
                if not set(map(type, new)) <= {str}:
                    raise DatasetFormatError(_NOT_STRINGS, line=lineno)
                if "" in new:
                    raise DatasetFormatError('"related" must not hold an empty id', line=lineno)
            if cid in related:
                raise DuplicateContentError(
                    f"content {cid!r} defined more than once", line=lineno
                )
            related[canon.setdefault(cid, cid)] = entries
    return related, canon


def _line_of(path: str, cid: ContentId) -> int | None:
    """The line of ``path``, already parsed, that defines ``cid``."""
    with open(path, encoding="utf-8") as handle:
        return next(
            (
                lineno
                for lineno, line in enumerate(handle, start=1)
                if line.strip() and json.loads(line)["id"] == cid
            ),
            None,
        )


def load_popularity_file(path: str, weights: dict[ContentId, float | None]) -> None:
    """Read an ``id,weight`` CSV file into ``weights``.

    An id that ``weights`` holds with the weight ``None`` takes its row's
    weight and keeps its key object; a new id is added at the end.  An id
    that already has a weight is a repeat.
    """
    with open(path, newline="", encoding="utf-8") as handle, utf8_errors(path, DatasetFormatError):
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "weight"]:
            raise DatasetFormatError('popularity file must start with header "id,weight"', line=1)
        # A quoted id may hold a line break, so a record is named by the
        # physical line it starts on, which follows the lines read before it.
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != 2:
                raise DatasetFormatError(f"expected 2 fields, got {len(row)}", line=lineno)
            cid, raw = row[0], row[1]
            if not cid:
                raise DatasetFormatError("id must be a non-empty string", line=lineno)
            if weights.get(cid) is not None:
                raise DuplicateContentError(
                    f"popularity for {cid!r} defined more than once", line=lineno
                )
            try:
                weight = float(raw)
            except ValueError:
                raise DatasetFormatError(f"invalid weight {raw!r}", line=lineno) from None
            if not (math.isfinite(weight) and weight >= 0):
                raise DatasetFormatError(
                    f"weight must be finite and >= 0, got {raw!r}", line=lineno
                )
            weights[cid] = weight


def load_dataset(related_path: str, popularity_path: str | None = None) -> Catalog:
    """Build a catalog from a related-lists file and optional popularity file.

    The catalog keeps the mapping of :func:`load_related_file`, with its
    leaves added, and reads the popularity file into a map keyed by its
    ids whose weights become the catalog's array; see the module docstring
    for which rule is checked where.
    """
    related, canon = _read_related(related_path)
    _add_leaves(related, canon)
    del canon
    weights: dict[ContentId, float | None] = dict.fromkeys(related)
    if popularity_path:
        load_popularity_file(popularity_path, weights)
        # An id that only the popularity file names is a leaf.
        for cid in islice(weights, len(related), None):
            related[cid] = ()
    try:
        for cid, entries in related.items():
            _check_related_list(cid, entries)
    except DatasetFormatError as exc:
        raise DatasetFormatError(
            exc.args[0], line=_line_of(related_path, exc.content_id), content_id=exc.content_id
        ) from None
    # The map's keys are the mapping's, in its order.
    array = np.fromiter(
        (0.0 if w is None else w for w in weights.values()), np.float64, len(weights)
    )
    del weights
    catalog = Catalog.__new__(Catalog)
    catalog._set(related, array)
    return catalog


def _related_lines(catalog: Catalog) -> Iterator[str]:
    # json.dumps takes the C encoder; json.dump to a stream does not.
    for cid in catalog.ids():
        related = list(catalog.related_list(cid))
        yield json.dumps({"id": cid, "related": related}, separators=(",", ":")) + "\n"


def dumps_related(catalog: Catalog) -> str:
    """Canonical related-lists serialization: records sorted by id."""
    return "".join(_related_lines(catalog))


def dumps_popularity(catalog: Catalog) -> str:
    """Canonical popularity serialization: ``id,weight`` rows sorted by id."""
    out = io.StringIO()
    ids, weights = list(catalog._related), catalog._weights.tolist()
    order = sorted(range(len(ids)), key=ids.__getitem__)
    write_csv(out, ("id", "weight"), ((ids[i], weights[i]) for i in order))
    return out.getvalue()


def save_dataset(
    catalog: Catalog, related_path: str, popularity_path: str | None = None
) -> None:
    """Write the catalog in canonical form (see module docstring), line by line."""
    with open(related_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(_related_lines(catalog))
    if popularity_path is not None:
        with open(popularity_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(dumps_popularity(catalog))
