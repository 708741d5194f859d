from __future__ import annotations

import csv
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cabaret_sim.catalog import (
    Catalog,
    PopularityRegion,
    RelationOracle,
    dumps_popularity,
    dumps_related,
    load_dataset,
    load_popularity_file,
    load_related_file,
    save_dataset,
    top_popular,
)
from cabaret_sim.errors import (
    DatasetFormatError,
    DuplicateContentError,
    ParameterError,
    UnknownContentError,
)
from cabaret_sim.synthetic import generate_synthetic

from conftest import random_catalog, reference_load_related_file

# Printable ids, biased toward the CSV and JSON metacharacters and line breaks.
_IDS = st.text(
    st.characters(blacklist_categories=("Cc", "Cs")) | st.sampled_from(',"\' \r\n'),
    min_size=1,
    max_size=6,
)



# Entries that are not ids: each must fail its line as the reference does.
_BAD_ENTRIES = [1, 1.5, None, True, False, ["v1"], {"a": 1}, "", float("nan")]
# Whole lines that break a structural rule.
_BAD_LINES = ["{oops", "[1]", '{"id":"v1"}', '{"id":1,"related":[]}', '{"id":"","related":[]}',
              '{"id":"v9","related":"v1"}']


@st.composite
def _related_files(draw):
    """JSON-lines text over a few ids, with bad entries, bad and blank lines."""
    ids = ["v1", "v2", "v3", "v4", "w5"]
    entry = st.one_of(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(_BAD_ENTRIES))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["record"] * 4 + ["blank", "bad"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "bad":
            lines.append(draw(st.sampled_from(_BAD_LINES)))
        else:
            related = draw(st.lists(entry, max_size=6))
            lines.append(json.dumps({"id": draw(st.sampled_from(ids)), "related": related}))
    return "".join(line + "\n" for line in lines)


# Ids that JSON escapes or CSV quotes, ids that only lists name, and ids
# that only the popularity file names.
_DEFINED = ["v1", "v2", "a,b", 'q"x', "l\nb", " s"]
_LEAVES = ["leaf1", "le,af2"]
_POPULAR_ONLY = ["p1", 'p"2']
# Popularity rows that break a rule.
_BAD_ROWS = [["v1", "zebra"], ["v2", "-1"], ["p1", "nan"], ["", "1"], ["v1", "1", "2"]]
_RARELY = st.sampled_from([False] * 5 + [True])


@st.composite
def _dataset_files(draw):
    """A related-lists text and a popularity text, or None, over ids that need escaping.

    Lists name leaves, the popularity file names ids no list does, and
    weights may be zero.  Now and then a list holds its own id or a
    repeat, a related line or a popularity row breaks a rule, an id is
    defined twice, or the header is wrong.
    """
    lines = []
    for cid in draw(st.lists(st.sampled_from(_DEFINED), unique=True, min_size=1)):
        others = [c for c in _DEFINED + _LEAVES if c != cid]
        related = draw(st.lists(st.sampled_from(others), unique=True, max_size=5))
        if draw(_RARELY):
            at = draw(st.integers(0, len(related)))
            related.insert(at, draw(st.sampled_from([cid, *related])))
        lines.append(json.dumps({"id": cid, "related": related}))
    if draw(_RARELY):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD_LINES)))
    if draw(st.booleans()):
        return "".join(line + "\n" for line in lines), None
    ids = st.sampled_from(_DEFINED + _LEAVES + _POPULAR_ONLY)
    weight = st.sampled_from(["0", "0.0", "1", "2.5", "1e-300"])
    rows = [[cid, draw(weight)] for cid in draw(st.lists(ids, unique=True, max_size=8))]
    if draw(_RARELY):
        rows.insert(draw(st.integers(0, len(rows))), [draw(ids), draw(weight)])
    if draw(_RARELY):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(_BAD_ROWS)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "wt"] if draw(_RARELY) else ["id", "weight"])
    writer.writerows(rows)
    return "".join(line + "\n" for line in lines), out.getvalue()


def _reference_dataset(related_path, popularity_path):
    """The mapping constructor over the reference loader's lists and the parsed weights.

    A list that holds its own id or a repeat names the line that defines it.
    """
    related = reference_load_related_file(related_path)
    weights = None
    if popularity_path:
        weights = {}
        load_popularity_file(popularity_path, weights)
    try:
        return Catalog(related, weights)
    except DatasetFormatError as exc:
        with open(related_path, encoding="utf-8") as handle:
            defined = [json.loads(line)["id"] if line.strip() else None for line in handle]
        line = defined.index(exc.content_id) + 1
        raise DatasetFormatError(exc.args[0], line=line, content_id=exc.content_id) from None


def _outcome(load, *paths):
    try:
        return load(*paths)
    except Exception as exc:  # compared with the reference's outcome
        return exc


def _traced(build, *args):
    """``build(*args)``, with the bytes it keeps and its peak as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = build(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def _loader_weight_map(catalog):
    """An id -> weight map as the loader builds one: presized, one float per content."""
    weights = dict.fromkeys(catalog._related)
    weights.update(zip(catalog._related, catalog._weights.tolist()))
    return weights


def stream_dumps_related(catalog):
    """The canonical related-lists form written record by record to a stream."""
    out = io.StringIO()
    for cid in catalog.ids():
        json.dump(
            {"id": cid, "related": list(catalog.related_list(cid))}, out, separators=(",", ":")
        )
        out.write("\n")
    return out.getvalue()


class TestCatalog:
    def test_leaf_closure(self):
        cat = Catalog({"a": ["b", "c"]})
        assert set(cat.ids()) == {"a", "b", "c"}
        assert cat.related_list("c") == ()
        assert cat.popularity_of("c") == 0.0

    def test_rejects_self_reference(self):
        with pytest.raises(DatasetFormatError):
            Catalog({"a": ["a"]})

    def test_rejects_duplicate_entry(self):
        with pytest.raises(DatasetFormatError):
            Catalog({"a": ["b", "b"]})

    def test_rejection_names_the_first_offender(self):
        with pytest.raises(DatasetFormatError, match="'a' contains the content itself"):
            Catalog({"ok": ["x"], "a": ["b", "a", "b"]})
        with pytest.raises(DatasetFormatError, match="'a' contains duplicate entry 'c'"):
            Catalog({"a": ["b", "c", "c", "b", "a"]})

    # An empty id would be saved to a file that the loaders reject.
    def test_rejects_empty_related_entry(self):
        with pytest.raises(ParameterError, match="related list of 'a' holds an empty id"):
            Catalog({"a": [""]})

    def test_rejects_empty_content_id(self):
        with pytest.raises(ParameterError, match="content id must be non-empty, got ''"):
            Catalog({"": ["a"]})

    def test_rejects_empty_popularity_id(self):
        with pytest.raises(ParameterError, match="popularity id must be non-empty, got ''"):
            Catalog({"a": ["b"]}, {"": 1.0})

    def test_leaves_follow_first_reference_order(self):
        cat = Catalog({"a": ["z", "b"], "b": ["y", "z", "a"]}, {"p": 1.0, "a": 2.0})
        assert list(cat._related) == ["a", "b", "z", "y", "p"]
        assert cat._weights.tolist() == [2.0, 0.0, 0.0, 0.0, 1.0]

    def test_rejects_negative_weight(self):
        for weight in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                Catalog({"a": ["b"]}, {"a": weight})

    def test_rejects_weight_that_is_not_a_number(self):
        for weight in (None, "x", 10**400):
            with pytest.raises(ParameterError, match="popularity weight for 'a' must be a number"):
                Catalog({"a": ["b"]}, {"a": weight})

    def test_accepts_weight_that_reads_as_a_number(self):
        assert Catalog({"a": ["b"]}, {"a": 2, "b": "1.5"}).popularity_of("b") == 1.5

    # A non-string id would fail later, in the first sort by id.
    def test_rejects_non_string_entry(self):
        with pytest.raises(ParameterError, match="content id must be a string, got 1"):
            Catalog({"a": [1, "b"]})
        with pytest.raises(ParameterError, match="related list of 'a' holds an unhashable id"):
            Catalog({"a": [["b"]]})

    def test_rejects_non_string_popularity_id(self):
        with pytest.raises(ParameterError, match="content id must be a string, got 3"):
            Catalog({"a": [], "b": []}, {3: 1.0})

    def test_rejects_bare_string_list(self):
        with pytest.raises(ParameterError, match="related list of 'a' is a string"):
            Catalog({"a": "bc"})

    def test_popularity_ids_become_leaves(self):
        cat = Catalog({"a": ["b"]}, {"z": 3.0})
        assert "z" in cat
        assert cat.popularity_of("z") == 3.0


@st.composite
def _arrays(draw):
    """Valid ``from_arrays`` input: n distinct ids, an (n, W) matrix, n weights."""
    n = draw(st.integers(1, 60))
    width = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Distinct ids out of sorted order; one drawn prefix keeps shrinking cheap.
    prefix = draw(_IDS)
    ids = [f"{prefix}{x}" for x in rng.permutation(n).tolist()]
    # Row i: the first ``width`` of a shuffle of the other row numbers.
    others = rng.permuted(np.tile(np.arange(n - 1), (n, 1)), axis=1)[:, :width]
    lists = others + (others >= np.arange(n)[:, None])
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint16]))
    weights = draw(st.lists(st.floats(0, 1e9), min_size=n, max_size=n))
    return ids, lists.astype(dtype), np.array(weights)


def _mapping_form(ids, lists, weights):
    related = dict(zip(ids, ([ids[x] for x in row] for row in lists.tolist())))
    return Catalog(related, dict(zip(ids, weights.tolist())))


def _error(build, *args):
    with pytest.raises(Exception) as caught:
        build(*args)
    return type(caught.value), str(caught.value)


class TestFromArrays:
    @settings(max_examples=100, deadline=None)
    @given(_arrays())
    def test_equals_the_mapping_form(self, arrays):
        ids, lists, weights = arrays
        cat = Catalog.from_arrays(*arrays)
        assert cat == _mapping_form(*arrays)
        assert all(key is cid for key, cid in zip(cat._related, ids, strict=True))
        assert cat._weights.tolist() == weights.tolist()
        for cid, row in zip(ids, lists.tolist()):
            assert all(entry is ids[x] for entry, x in zip(cat.related_list(cid), row, strict=True))

    # Faults the mapping form can hold: both forms raise alike.
    @settings(max_examples=100, deadline=None)
    @given(_arrays(), st.sampled_from(["self", "repeat", "nan", "negative", "empty"]), st.data())
    def test_a_fault_raises_as_the_mapping_form_does(self, arrays, fault, data):
        ids, lists, weights = arrays
        n, width = lists.shape
        i = data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(0, max(width - 1, 0)))
        if fault == "self":
            assume(width >= 1)
            lists[i, k] = i
        elif fault == "repeat":
            assume(width >= 2)
            lists[i, k] = lists[i, (k + 1) % width]
        elif fault == "nan":
            weights[i] = math.nan
        elif fault == "negative":
            weights[i] = -data.draw(st.floats(1e-300, 1e9))
        else:
            ids[i] = ""
        expected = _error(_mapping_form, ids, lists, weights)
        assert expected[0] in (DatasetFormatError, ParameterError)
        assert _error(Catalog.from_arrays, ids, lists, weights) == expected

    # Faults no mapping can hold.
    @settings(max_examples=50, deadline=None)
    @given(_arrays(), st.sampled_from(["duplicate id", "out of range", "not integers"]), st.data())
    def test_a_fault_of_the_arrays_raises_a_parameter_error(self, arrays, fault, data):
        ids, lists, weights = arrays
        n, width = lists.shape
        i = data.draw(st.integers(0, n - 1))
        if fault == "duplicate id":
            assume(n >= 2)
            ids[i] = ids[(i + 1) % n]
        elif fault == "out of range":
            assume(width >= 1)
            lists = lists.astype(np.int64)
            lists[i, data.draw(st.integers(0, width - 1))] = data.draw(st.sampled_from([-1, n]))
        else:
            lists = lists.astype(np.float64)
        with pytest.raises(ParameterError):
            Catalog.from_arrays(ids, lists, weights)

    def test_keeps_a_copy_of_its_weights(self):
        weights = np.array([1.0, 2.0])
        cat = Catalog.from_arrays(["a", "b"], np.zeros((2, 0), np.int32), weights)
        weights[0] = 5.0
        assert cat.popularity_of("a") == 1.0
        assert top_popular(cat, 1).ids == ("b",)
        assert not cat._weights.flags.writeable
        with pytest.raises(ValueError):
            cat._weights[0] = 5.0


class TestRelatedQueries:
    def test_prefix(self):
        oracle = RelationOracle(Catalog({"v": ["a", "b", "c"]}))
        assert oracle.related("v", 2) == ("a", "b")

    def test_empty_list(self):
        oracle = RelationOracle(Catalog({"v": []}))
        assert oracle.related("v", 10) == ()

    def test_w_max_caps_long_lists(self):
        # Provider APIs cap a single query at 50 entries.
        entries = [f"x{i}" for i in range(60)]
        oracle = RelationOracle(Catalog({"v": entries}))
        assert oracle.related("v", 60) == tuple(entries[:50])

    def test_unknown_content(self):
        oracle = RelationOracle(Catalog({"v": ["a"]}))
        with pytest.raises(UnknownContentError):
            oracle.related("nope", 3)

    def test_bad_width(self):
        oracle = RelationOracle(Catalog({"v": ["a"]}))
        with pytest.raises(ParameterError):
            oracle.related("v", 0)

    def test_queries_are_prefix_consistent(self, rng):
        cat = random_catalog(rng, 30, 8)
        oracle = RelationOracle(cat)
        for cid in cat.ids():
            for w1 in range(1, 9):
                for w2 in range(w1, 9):
                    r1, r2 = oracle.related(cid, w1), oracle.related(cid, w2)
                    assert r2[: len(r1)] == r1
            full = oracle.related(cid, 100)
            assert cid not in full
            assert len(set(full)) == len(full)


class TestTopPopular:
    def test_highest_weights_win(self):
        cat = Catalog({"a": [], "b": [], "c": []}, {"a": 3.0, "b": 1.0, "c": 2.0})
        assert top_popular(cat, 2).ids == ("a", "c")

    def test_ties_break_by_id(self):
        cat = Catalog({"a": [], "b": []}, {"a": 1.0, "b": 1.0})
        assert top_popular(cat, 2).ids == ("a", "b")

    def test_zero_count_rejected(self):
        cat = Catalog({"a": []})
        with pytest.raises(ParameterError):
            top_popular(cat, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=30),
        st.integers(1, 40),
    )
    @example([0.0, -0.0, 0.0, -0.0, 0.0], 2)
    @example([1.0, 0.5, 1.0, 2.0, 1.0, 0.5], 3)
    def test_equals_full_sort(self, weights, count):
        # Few distinct weights, zeros of both signs included, so most ranks
        # are ties, many across the cut; ids are inserted in descending
        # order so ties must be broken by id.  The loaded catalog keys its
        # contents in id order, the other two in descending order.
        ids = [f"c{99 - i:02d}" for i in range(len(weights))]
        mapped = Catalog({}, dict(zip(ids, weights)))
        arrays = Catalog.from_arrays(ids, np.zeros((len(ids), 0), np.int32), np.array(weights))
        with tempfile.TemporaryDirectory() as tmp:
            rel, pop = Path(tmp) / "rel.jsonl", Path(tmp) / "pop.csv"
            save_dataset(mapped, str(rel), str(pop))
            loaded = load_dataset(str(rel), str(pop))
        by_id = dict(zip(ids, weights))
        ranked = sorted(ids, key=lambda c: (-by_id[c], c))
        for cat in (mapped, arrays, loaded):
            region = top_popular(cat, count)
            assert region.ids == tuple(ranked[:count])
            assert region.truncated == (count > len(weights))

    def test_a_region_refuses_a_repeated_id(self):
        # The exact evaluator counted a repeated front-page id once and the
        # sampler twice: on (a, a, b) they read 0.267 and 0.399.
        with pytest.raises(ParameterError, match="region repeats content 'a'"):
            PopularityRegion(("a", "a"))
        with pytest.raises(ParameterError, match="'b'"):
            PopularityRegion(("b", "a", "c", "b"))
        assert PopularityRegion(("b", "a")).ids == ("b", "a")

    def test_oversized_request_truncates_with_flag(self):
        cat = Catalog({"a": [], "b": []}, {"a": 2.0, "b": 1.0})
        region = top_popular(cat, 5)
        assert region.ids == ("a", "b")
        assert region.truncated


class TestDatasetFiles:
    def test_two_line_round_reference(self, tmp_path):
        path = tmp_path / "rel.jsonl"
        path.write_text(
            '{"id":"a","related":["b"]}\n{"id":"b","related":["a"]}\n',
            encoding="utf-8",
        )
        cat = load_dataset(str(path))
        assert len(cat) == 2
        assert cat.related_list("a") == ("b",)
        assert cat.related_list("b") == ("a",)

    def test_undefined_reference_becomes_leaf(self, tmp_path):
        path = tmp_path / "rel.jsonl"
        path.write_text('{"id":"a","related":["c"]}\n', encoding="utf-8")
        cat = load_dataset(str(path))
        assert cat.related_list("c") == ()

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "rel.jsonl"
        path.write_text('{"id":"a","related":[]}\n{oops\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 2

    def test_duplicate_definition_rejected(self, tmp_path):
        path = tmp_path / "rel.jsonl"
        path.write_text(
            '{"id":"a","related":[]}\n{"id":"a","related":["b"]}\n', encoding="utf-8"
        )
        with pytest.raises(DuplicateContentError):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "related", ['"abc"', "[1]", "[null]", '[["x"]]', '[{"a": 1}]', '["b", 1]']
    )
    def test_related_not_an_array_of_strings(self, tmp_path, related):
        path = tmp_path / "rel.jsonl"
        path.write_text(
            '{"id":"a","related":[]}\n\n{"id":"b","related":%s}\n' % related, encoding="utf-8"
        )
        with pytest.raises(DatasetFormatError, match='"related" must be an array of strings') as err:
            load_dataset(str(path))
        assert err.value.line == 3

    def test_empty_related_entry_rejected(self, tmp_path):
        # A saved empty id could not be loaded again, so loading rejects it.
        path = tmp_path / "rel.jsonl"
        path.write_text('{"id":"b","related":[]}\n{"id":"a","related":[""]}\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="empty id") as err:
            load_dataset(str(path))
        assert err.value.line == 2

    def test_empty_popularity_id_rejected(self, tmp_path):
        rel = tmp_path / "rel.jsonl"
        rel.write_text('{"id":"a","related":[]}\n', encoding="utf-8")
        pop = tmp_path / "pop.csv"
        pop.write_text('id,weight\na,1.0\n"",1.0\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="non-empty") as err:
            load_dataset(str(rel), str(pop))
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id":"a","related":["a"]}', "related list of 'a' contains the content itself"),
            ('{"id":"a","related":["b","b"]}', "related list of 'a' contains duplicate entry 'b'"),
        ],
    )
    def test_bad_related_list_names_its_line(self, tmp_path, record, message):
        path = tmp_path / "rel.jsonl"
        path.write_text('{"id":"b","related":[]}\n\n%s\n' % record, encoding="utf-8")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 3
        assert str(err.value) == f"line 3: {message}"

    def test_loaded_ids_are_shared_objects(self, tmp_path):
        # Ids repeat across keys and lists; "leaf" is referenced but never
        # defined.  No id has one character: CPython shares those anyway.
        lines = [
            {"id": "v1", "related": ["v2", "leaf", "v3"]},
            {"id": "v2", "related": ["leaf", "v1"]},
            {"id": "v3", "related": ["v1", "v2", "leaf"]},
        ]
        path = tmp_path / "rel.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
        cat = load_dataset(str(path))
        keys = cat.ids()
        occurrences = keys + [x for cid in keys for x in cat.related_list(cid)]
        assert len({id(x) for x in occurrences}) == len(cat) == 4
        assert cat == Catalog({r["id"]: list(r["related"]) for r in lines})

    # Bad values repeat across lines, a duplicate id may share a line with a
    # bad entry, and a bad line may follow one.
    @settings(max_examples=200, deadline=None)
    @given(_related_files())
    def test_loader_matches_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "rel.jsonl")
            Path(path).write_text(text, encoding="utf-8")
            got = _outcome(load_related_file, path)
            want = _outcome(reference_load_related_file, path)
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
            assert got.line == want.line
        else:
            assert list(got.items()) == list(want.items())
            occurrences = list(got) + [x for lst in got.values() for x in lst]
            assert len({id(x) for x in occurrences}) == len(set(occurrences))

    # Both files bad: the popularity row's error comes before the list's.
    @settings(max_examples=300, deadline=None)
    @given(_dataset_files())
    @example(('{"id":"v1","related":["v2","v2"]}\n', "id,weight\nv1,1\nv2,zebra\n"))
    # Two leaves first named on different lines, the later id first: the
    # catalog keys them in order of first reference, not of id.
    @example(('{"id":"v1","related":["v9"]}\n{"id":"v2","related":["v3","v9"]}\n', None))
    def test_dataset_matches_the_mapping_constructor(self, files):
        related_text, popularity_text = files
        with tempfile.TemporaryDirectory() as tmp:
            rel, pop = Path(tmp) / "rel.jsonl", None
            rel.write_text(related_text, encoding="utf-8")
            if popularity_text is not None:
                pop = Path(tmp) / "pop.csv"
                pop.write_text(popularity_text, encoding="utf-8")
            paths = str(rel), pop and str(pop)
            got = _outcome(load_dataset, *paths)
            want = _outcome(_reference_dataset, *paths)
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
            assert got.line == want.line
        else:
            assert got == want
            assert list(got._related.items()) == list(want._related.items())
            assert got._weights.tolist() == want._weights.tolist()
            occurrences = [*got._related]
            occurrences += [x for lst in got._related.values() for x in lst]
            assert len({id(x) for x in occurrences}) == len(got)

    @pytest.mark.parametrize(
        "related, weights, line, message",
        [
            ('{"id":"v1","related":["v1"]}\n{oops\n', "id,weight\nv1,x\n", 2, "invalid JSON"),
            ('{"id":"v1","related":["v1"]}\n', "id,weight\nv1,1\nv1,2\n", 3,
             "popularity for 'v1' defined more than once"),
            ('{"id":"v2","related":[]}\n{"id":"v1","related":["v1"]}\n', "id,weight\nv1,1\n", 2,
             "related list of 'v1' contains the content itself"),
        ],
    )
    def test_related_then_popularity_then_list_errors(
        self, tmp_path, related, weights, line, message
    ):
        rel, pop = tmp_path / "rel.jsonl", tmp_path / "pop.csv"
        rel.write_text(related, encoding="utf-8")
        pop.write_text(weights, encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=message) as err:
            load_dataset(str(rel), str(pop))
        assert err.value.line == line

    def test_load_holds_one_mapping(self, tmp_path):
        # The catalog keeps the loader's mapping and reads the weights
        # straight into a map keyed by its ids.  Copying the mapping and
        # parsing the weights into a dict of the file's own id strings first
        # held about half the catalog again on top of it.  The bound is on
        # what the mapping and an id -> weight map hold, as the catalog did
        # before it kept its weights in an array, so that the smaller
        # catalog admits no larger peak.
        rel, pop = tmp_path / "rel.jsonl", tmp_path / "pop.csv"
        save_dataset(generate_synthetic(3000, 20, 0.9, 3), str(rel), str(pop))
        loaded, _, peak = _traced(load_dataset, str(rel), str(pop))
        _, mapping, _ = _traced(load_related_file, str(rel))
        _, weight_map, _ = _traced(_loader_weight_map, loaded)
        assert len(loaded) == 3000
        held = mapping + weight_map
        assert peak - held < held // 8

    def test_weights_cost_under_16_bytes_a_content(self, tmp_path):
        # One float64 a content; a map of the ids to weights costs about 58.
        rel, pop = tmp_path / "rel.jsonl", tmp_path / "pop.csv"
        save_dataset(generate_synthetic(3000, 20, 0.9, 3), str(rel), str(pop))
        loaded, kept, _ = _traced(load_dataset, str(rel), str(pop))
        _, mapping, _ = _traced(load_related_file, str(rel))
        assert len(loaded) == 3000
        assert kept - mapping < 16 * 3000

    def test_catalog_keeps_the_loaders_tuples(self, tmp_path):
        path = tmp_path / "rel.jsonl"
        path.write_text('{"id":"a","related":["b","c"]}\n', encoding="utf-8")
        related = load_related_file(str(path))
        assert Catalog(related).related_list("a") is related["a"]

    def test_popularity_parsing(self, tmp_path):
        rel = tmp_path / "rel.jsonl"
        rel.write_text('{"id":"a","related":["b"]}\n', encoding="utf-8")
        pop = tmp_path / "pop.csv"
        pop.write_text("id,weight\na,2.5\nb,0\n", encoding="utf-8")
        cat = load_dataset(str(rel), str(pop))
        assert cat.popularity_of("a") == 2.5

    def test_popularity_bad_header(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text("id,wt\na,1\n", encoding="utf-8")
        rel = tmp_path / "rel.jsonl"
        rel.write_text('{"id":"a","related":[]}\n', encoding="utf-8")
        with pytest.raises(DatasetFormatError):
            load_dataset(str(rel), str(pop))

    def test_popularity_bad_weight_line_number(self, tmp_path):
        rel = tmp_path / "rel.jsonl"
        rel.write_text('{"id":"a","related":[]}\n', encoding="utf-8")
        pop = tmp_path / "pop.csv"
        for raw in ("zebra", "nan", "inf", "-inf", "Infinity"):
            pop.write_text(f"id,weight\na,1\nb,{raw}\n", encoding="utf-8")
            with pytest.raises(DatasetFormatError) as err:
                load_dataset(str(rel), str(pop))
            assert err.value.line == 3

    @pytest.mark.parametrize("text, line, message", [
        ('id,weight\n"a\nb",1\nc,zebra\n', 4, "invalid weight 'zebra'"),
        ('id,weight\na,1\n\n"b\r\nc",-1\n', 4, "weight must be finite and >= 0, got '-1'"),
        ('id,weight\n"a\nb",1\n"a\nb",2\n', 4, "popularity for 'a\\nb' defined more than once"),
    ], ids=[
        "break-before-bad-row", "bad-multi-line-record-after-blank", "repeat-of-multi-line-id",
    ])
    def test_popularity_errors_name_the_line_a_record_starts_on(
        self, tmp_path, text, line, message
    ):
        rel = tmp_path / "rel.jsonl"
        rel.write_text('{"id":"a","related":[]}\n', encoding="utf-8")
        pop = tmp_path / "pop.csv"
        pop.write_bytes(text.encode("utf-8"))
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(rel), str(pop))
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_with_arbitrary_ids(self, data):
        ids = data.draw(st.lists(_IDS, min_size=1, max_size=8, unique=True))
        related = {}
        for cid in ids:
            drawn = data.draw(st.lists(st.sampled_from(ids), unique=True))
            related[cid] = [c for c in drawn if c != cid]
        weights = st.floats(min_value=0, allow_infinity=False)
        popularity = {cid: data.draw(weights) for cid in ids}
        cat = Catalog(related, popularity)
        with tempfile.TemporaryDirectory() as tmp:
            rel, pop = Path(tmp) / "rel.jsonl", Path(tmp) / "pop.csv"
            save_dataset(cat, str(rel), str(pop))
            loaded = load_dataset(str(rel), str(pop))
            assert loaded == cat
            assert dumps_related(loaded).encode() == rel.read_bytes()
            assert dumps_popularity(loaded).encode() == pop.read_bytes()
        assert dumps_related(cat) == stream_dumps_related(cat)

    def test_save_load_round_trip_is_canonical(self, tmp_path, rng):
        # Serialization oracle: canonical form is a fixed point of save(load(.)).
        cat = random_catalog(rng, 25, 6)
        rel1, pop1 = tmp_path / "r1.jsonl", tmp_path / "p1.csv"
        save_dataset(cat, str(rel1), str(pop1))
        loaded = load_dataset(str(rel1), str(pop1))
        assert loaded == cat
        rel2, pop2 = tmp_path / "r2.jsonl", tmp_path / "p2.csv"
        save_dataset(loaded, str(rel2), str(pop2))
        assert rel1.read_bytes() == rel2.read_bytes()
        assert pop1.read_bytes() == pop2.read_bytes()

    def test_canonical_form_sorted_by_id(self):
        cat = Catalog({"b": ["a"], "a": ["b"]})
        text = dumps_related(cat)
        assert text.splitlines()[0].startswith('{"id":"a"')
        assert dumps_popularity(cat).splitlines()[0] == "id,weight"
