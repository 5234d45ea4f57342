import tracemalloc
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synnetgen import (
    Clustering,
    EdgeSet,
    GraphFormatError,
    build_csr,
    connected_components,
    load_clustering,
    load_edge_list,
    write_clustering,
    write_edge_list,
)
from synnetgen.graphs import _fast_int_pairs, _parse_int_pairs, _sorted_unique, \
    gather_neighbors

from helpers import random_edge_array, reference_parse_int_pairs


def test_edge_set_canonicalizes_and_dedups():
    es = EdgeSet()
    assert es.add(3, 1)
    assert not es.add(1, 3)
    assert (1, 3) in es and (3, 1) in es
    assert len(es) == 1
    with pytest.raises(ValueError):
        es.add(2, 2)
    assert es.to_array().tolist() == [[1, 3]]


def test_edge_set_to_array_sorted():
    es = EdgeSet([(5, 2), (0, 9), (2, 5), (0, 1)])
    assert es.to_array().tolist() == [[0, 1], [0, 9], [2, 5]]


def test_empty_edge_set_array_shape():
    assert EdgeSet().to_array().shape == (0, 2)


def test_build_csr_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        arr = random_edge_array(rng, n, 0.3)
        g = build_csr(arr, n)
        assert g.n == n
        assert g.m == len(arr)
        assert len(g.offsets) == n + 1
        assert g.offsets[0] == 0 and g.offsets[-1] == 2 * g.m
        for u in range(n):
            nb = g.cols[g.offsets[u]:g.offsets[u + 1]]
            assert np.all(np.diff(nb) > 0)  # sorted, no dups
            assert u not in nb
        # both directions stored
        assert int(g.degrees.sum()) == 2 * g.m
        # canonical edge array round-trips
        assert g.edge_array().tolist() == arr.tolist()


def test_build_csr_rejects_out_of_range():
    with pytest.raises(IndexError):
        build_csr(np.array([[0, 5]]), 3)


def test_has_edge():
    g = build_csr(np.array([[0, 1], [1, 2]]), 4)

    def has_edge(u, v):
        return v in g.cols[g.offsets[u]:g.offsets[u + 1]]

    assert has_edge(0, 1) and has_edge(1, 0)
    assert has_edge(2, 1)
    assert not has_edge(0, 2)
    assert not has_edge(3, 0)


def test_csr_input_order_does_not_matter():
    edges = np.array([(0, 3), (1, 2), (0, 1)])
    a = build_csr(edges, 4)
    b = build_csr(edges[::-1, ::-1], 4)
    assert a.cols.tolist() == b.cols.tolist()
    assert a.offsets.tolist() == b.offsets.tolist()


def test_gather_neighbors_matches_loop():
    rng = np.random.default_rng(11)
    g = build_csr(random_edge_array(rng, 20, 0.2), 20)
    nodes = np.array([3, 3, 0, 17], dtype=np.int64)
    expect = np.concatenate([g.cols[g.offsets[u]:g.offsets[u + 1]] for u in nodes])
    got = gather_neighbors(g, nodes)
    assert got.tolist() == expect.tolist()


def test_clustering_basics():
    c = Clustering([4, 4, 9, 7, 9, 9])
    assert c.n == 6
    assert c.cluster_ids.tolist() == [4, 7, 9]
    assert c.index.tolist() == [0, 0, 2, 1, 2, 2]
    assert c.singleton_nodes.tolist() == [3]
    assert c.clustered_mask.tolist() == [True, True, True, False, True, True]
    order, bounds = c.grouped
    assert order.tolist() == [0, 1, 3, 2, 4, 5]
    assert bounds.tolist() == [0, 2, 3, 6]


def test_load_edge_list_basics(tmp_path):
    p = tmp_path / "net.tsv"
    p.write_text("# comment\n10 30\n30 10\n% other comment\n20\t30\n5 5\n\n")
    res = load_edge_list(p)
    assert res.labels.tolist() == [5, 10, 20, 30]
    assert res.n == 4
    assert res.self_loops_dropped == 1
    assert res.duplicates_dropped == 1
    # 10<->1, 20<->2, 30<->3 internally
    assert res.edges.tolist() == [[1, 3], [2, 3]]


def test_load_edge_list_returns_canonical_array(tmp_path):
    rng = np.random.default_rng(5)
    arr = random_edge_array(rng, 60, 0.1)
    rows = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in arr.tolist()]
    rows = [rows[i] for i in rng.permutation(len(rows))] + rows[:5]
    p = tmp_path / "net.tsv"
    p.write_text("".join(f"{u}\t{v}\n" for u, v in rows))
    res = load_edge_list(p)
    assert isinstance(res.edges, np.ndarray)
    assert res.edges.dtype == np.int64 and res.edges.shape == (len(arr), 2)
    assert (res.edges[:, 0] < res.edges[:, 1]).all()
    assert np.lexsort(res.edges.T[::-1]).tolist() == list(range(len(arr)))
    assert res.labels[res.edges].tolist() == arr.tolist()
    assert res.duplicates_dropped == 5


def test_self_loop_only_node_stays_in_universe(tmp_path):
    p = tmp_path / "net.tsv"
    p.write_text("1 2\n7 7\n")
    res = load_edge_list(p)
    assert res.labels.tolist() == [1, 2, 7]
    assert len(res.edges) == 1


def test_load_edge_list_errors(tmp_path):
    missing = tmp_path / "nope.tsv"
    with pytest.raises(GraphFormatError, match="file not found"):
        load_edge_list(missing)
    bad = tmp_path / "bad.tsv"
    bad.write_text("1 2\n3 x\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list(bad)
    wide = tmp_path / "wide.tsv"
    wide.write_text("1 2 3\n")
    with pytest.raises(GraphFormatError, match="two integer columns"):
        load_edge_list(wide)
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing\n")
    with pytest.raises(GraphFormatError, match="no edges"):
        load_edge_list(empty)


# (file text, message after "<path>: ") for files the loop must reject
MALFORMED = {
    "three tokens": ("1 2\n3 4 5\n", "line 2: expected two integer columns, got 3"),
    "one token": ("1 2\n3\n", "line 2: expected two integer columns, got 1"),
    "three then one": ("1 2 3\n4\n", "line 1: expected two integer columns, got 3"),
    "non-integer": ("1 2\n3 x\n", "line 2: non-integer token in '3 x'"),
    "lone minus": ("1 2\n- 3\n", "line 2: non-integer token in '- 3'"),
    "trailing lone minus": ("1 2\n3 -\n", "line 2: non-integer token in '3 -'"),
    "inner minus": ("1 2\n3 4-5\n", "line 2: non-integer token in '3 4-5'"),
    "comment lines": ("# header\n% note\n1 2\n3\n",
                      "line 4: expected two integer columns, got 1"),
    "blank lines": ("\n1 2\n\n \t\n3 4 5\n", "line 5: expected two integer columns, got 3"),
    "CRLF": ("1 2\r\n3 4\r\n5\r\n", "line 3: expected two integer columns, got 1"),
    "CR-only": ("1 2\r3 4\r5 x\r", "line 3: non-integer token in '5 x'"),
    "mixed tabs and spaces": ("1\t 2\n3 \t4\t 5\n",
                              "line 2: expected two integer columns, got 3"),
    "vertical tab": ("1\x0b2\n", "line 1: expected two integer columns, got 1"),
    "out-of-int64": ("1 2\n3\t99999999999999999999\n",
                     "line 2: integer outside the int64 range in '3\\t99999999999999999999'"),
    "below int64": ("-9223372036854775809 1\n",
                    "line 1: integer outside the int64 range in '-9223372036854775809 1'"),
}

# (file text, parsed rows, whether the bulk path takes it)
WELL_FORMED = {
    "LF": ("1 2\n3 4\n", [[1, 2], [3, 4]], True),
    "CRLF": ("1 2\r\n3 4\r\n", [[1, 2], [3, 4]], True),
    "mixed tabs and spaces": ("1\t 2\n\n \t-3 \t 004 \n", [[1, 2], [-3, 4]], True),
    "18 digits": ("999999999999999999 -999999999999999999",
                  [[999999999999999999, -999999999999999999]], True),
    "blank only": ("\n \t\r\n", [], True),
    "empty": ("", [], True),
    "comment": ("# c\n1 2\n", [[1, 2]], True),
    "header block": (" % a\tb\r\n\n\t# Nodes: 3\n1 2\n", [[1, 2]], True),
    "comment after data": ("1 2\n# c\n3 4\n", [[1, 2], [3, 4]], False),
    "non-ASCII comment": ("# é\n1 2\n", [[1, 2]], False),
    "CR-only": ("1 2\r3 4\r", [[1, 2], [3, 4]], False),
    "int() syntax": ("+5 1_000\n", [[5, 1000]], False),
    "non-ASCII digit": ("٣ 4\n", [[3, 4]], False),
    "int64 extremes": ("9223372036854775807 -9223372036854775808\n",
                       [[9223372036854775807, -9223372036854775808]], False),
    "19-digit small": ("0000000000000000001 2\n", [[1, 2]], False),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_parse_malformed_messages(tmp_path, case):
    text, message = MALFORMED[case]
    p = tmp_path / "bad.tsv"
    p.write_bytes(text.encode("utf-8"))
    assert _fast_int_pairs(p.read_bytes()) is None
    for parse in (_parse_int_pairs, reference_parse_int_pairs):
        with pytest.raises(GraphFormatError) as exc:
            parse(p)
        assert str(exc.value) == f"{p}: {message}"


@pytest.mark.parametrize("case", WELL_FORMED)
def test_parse_well_formed_on_both_paths(tmp_path, case):
    text, rows, bulk = WELL_FORMED[case]
    p = tmp_path / "ok.tsv"
    p.write_bytes(text.encode("utf-8"))
    assert (_fast_int_pairs(p.read_bytes()) is not None) == bulk
    for parse in (_parse_int_pairs, reference_parse_int_pairs):
        got = parse(p)
        assert got.dtype == np.int64 and got.shape == (len(rows), 2)
        assert got.tolist() == rows


_ADVERSARIAL = "0123456789-+_#%x \t\r\n\x0b٣"
_FAST_NUMBERS = st.integers(-10**18 + 1, 10**18 - 1).map(str)
_NUMBERS = st.one_of(
    _FAST_NUMBERS,
    st.integers(10**18, 10**19).map(lambda x: str(x) if x % 2 else f"-{x}"),
    st.sampled_from(["-0", "007", "0000000000000000001", "9223372036854775807",
                     "-9223372036854775808", "9223372036854775808"]),
)
_TOKENS = st.one_of(_NUMBERS, _NUMBERS, st.text("0123456789-+_#%x٣", min_size=1, max_size=4))


@st.composite
def int_pair_texts(draw):
    """Two-column texts from an adversarial alphabet: well formed ("clean"),
    well formed after a block of comment and blank lines ("header"), well
    formed with one character inserted ("near"), loosely formed ("wild"),
    or any string of the alphabet ("raw")."""
    mode = draw(st.sampled_from(["clean", "header", "near", "wild", "raw"]))
    if mode == "raw":
        return draw(st.text(_ADVERSARIAL, max_size=40))
    loose = mode == "wild"
    seps = st.sampled_from([" ", "\t", " \t", "\x0b", "\r"] if loose else [" ", "\t", " \t"])
    ends = st.sampled_from(["\n", "\r\n", "\r", "\x0b", ""] if loose else ["\n", "\r\n"])
    text = ""
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.sampled_from([2, 2, 0, 1, 3] if loose else [2, 2, 2, 0]))
        tokens = [draw(_TOKENS if loose else _FAST_NUMBERS) for _ in range(k)]
        text += draw(st.sampled_from(["", " "])) + "".join(t + draw(seps) for t in tokens)
        text += draw(ends)
    if mode == "near":
        at = draw(st.integers(0, len(text)))
        extra = draw(st.sampled_from(list(_ADVERSARIAL) + ["1234567890123456789"]))
        text = text[:at] + extra + text[at:]
    if mode == "header":
        for _ in range(draw(st.integers(1, 3))):
            text = (draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(["#", "%", ""]))
                    + draw(st.one_of(st.text(" \t#%x1-", max_size=8),
                                     st.text(_ADVERSARIAL, max_size=3)))
                    + draw(st.sampled_from(["\n", "\r\n"])) + text)
    return text


def _outcome(parse, path):
    try:
        arr = parse(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return arr.dtype.name, arr.shape, arr.tolist()


@settings(max_examples=500)
@given(int_pair_texts())
@example("1 2 3\n4\n")
@example("1 2\n3 -\n")
@example("1 2\r3 4\n")
@example(" \n")
def test_parse_matches_the_line_loop(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "differential.tsv"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(_parse_int_pairs, p) == _outcome(reference_parse_int_pairs, p)


def test_load_clustering_rejects_out_of_int64(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("5 1\n10 18446744073709551616\n")
    with pytest.raises(GraphFormatError, match="line 2: integer outside the int64 range"):
        load_clustering(p, np.array([5, 10]))


@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=30))
def test_sorted_unique_matches_np_unique(values):
    x = np.array(values, dtype=np.int64)
    got = _sorted_unique(x)
    assert got.dtype == np.int64
    assert got.tolist() == np.unique(x).tolist()


def test_deprecation_in_the_package_is_an_error():
    # pyproject's filterwarnings turns a numpy deprecation the package
    # triggers, such as one of np.fromstring's text mode, into a failure
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old", DeprecationWarning, "graphs.py", 1,
                               module="synnetgen.graphs")


def test_runtime_warning_in_the_package_is_an_error():
    # likewise an overflow or NaN that numpy reports from package code
    with pytest.raises(RuntimeWarning):
        warnings.warn_explicit("overflow", RuntimeWarning, "mincut.py", 1,
                               module="synnetgen.mincut")


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(2, 40))
        arr = random_edge_array(rng, n, 0.2)
        if len(arr) == 0:
            continue
        # scatter onto sparse external labels
        labels = np.sort(rng.choice(10_000, size=n, replace=False))
        p = tmp_path / f"rt{trial}.tsv"
        write_edge_list(arr, labels, p)
        res = load_edge_list(p)
        used = np.unique(labels[arr])
        assert res.labels.tolist() == used.tolist()
        ext = res.labels[res.edges]
        assert ext.tolist() == labels[arr].tolist()


def test_write_edge_list_bytes(tmp_path):
    p = tmp_path / "out.tsv"
    write_edge_list(np.array([[0, 1], [0, 2]]), np.array([10, 20, 30]), p)
    assert p.read_text() == "10\t20\n10\t30\n"
    write_edge_list(np.empty((0, 2), dtype=np.int64), np.array([10]), p)
    assert p.read_text() == ""


def test_load_clustering_and_errors(tmp_path):
    labels = np.array([5, 10, 20])
    p = tmp_path / "c.tsv"
    p.write_text("10 1\n5 1\n20 2\n")
    c = load_clustering(p, labels)
    assert c.assignment.tolist() == [1, 1, 2]

    p.write_text("10 1\n5 1\n20 2\n99 2\n")
    with pytest.raises(GraphFormatError, match="unknown node 99"):
        load_clustering(p, labels)

    p.write_text("10 1\n5 1\n10 2\n20 2\n")
    with pytest.raises(GraphFormatError, match="assigned more than once"):
        load_clustering(p, labels)

    p.write_text("10 1\n5 1\n")
    with pytest.raises(GraphFormatError, match="node 20 missing"):
        load_clustering(p, labels)


def test_load_clustering_names_the_earlier_offending_line(tmp_path):
    labels = np.array([5, 10, 20])
    p = tmp_path / "c.tsv"
    p.write_text("10 1\n99 2\n10 2\n5 1\n20 2\n")
    with pytest.raises(GraphFormatError, match="unknown node 99"):
        load_clustering(p, labels)

    p.write_text("10 1\n10 2\n99 2\n5 1\n20 2\n")
    with pytest.raises(GraphFormatError, match="node 10 assigned more than once"):
        load_clustering(p, labels)

    # a repeat of an unknown node is reported as unknown, at its first line
    p.write_text("5 1\n7 1\n7 1\n10 1\n20 2\n")
    with pytest.raises(GraphFormatError, match="unknown node 7"):
        load_clustering(p, labels)


def test_clustering_round_trip(tmp_path):
    labels = np.array([3, 6, 8, 11])
    c = Clustering([2, 0, 2, 5])
    p = tmp_path / "c.tsv"
    write_clustering(c, labels, p)
    assert p.read_text() == "3\t2\n6\t0\n8\t2\n11\t5\n"
    c2 = load_clustering(p, labels)
    assert c2.assignment.tolist() == c.assignment.tolist()


def test_connected_components_labels():
    # two components; labels follow ascending smallest member
    g = build_csr(np.array([[3, 4], [0, 1], [1, 2]]), 6)
    labels = connected_components(g)
    assert labels.tolist() == [0, 0, 0, 1, 1, 2]


def test_write_edge_list_memory_stays_bounded(tmp_path):
    # rows are formatted _WRITE_BLOCK at a time, so the Python ints a write
    # holds do not grow with the edge count; one format over all 2m values
    # peaks near 119 MiB on this input
    m = 1_000_000
    edges = np.column_stack([np.arange(m), np.arange(1, m + 1)])
    labels = np.arange(m + 1) * 3 + 10**9
    path = tmp_path / "big.tsv"
    tracemalloc.start()
    try:
        write_edge_list(edges, labels, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    lines = path.read_text().splitlines()
    assert len(lines) == m
    assert lines[0] == "1000000000\t1000000003"
    assert lines[-1] == f"{10**9 + 3 * (m - 1)}\t{10**9 + 3 * m}"


def components_oracle(n, edges):
    """networkx components, labelled in ascending order of smallest member."""
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges.tolist())
    labels = np.empty(n, dtype=np.int64)
    for label, comp in enumerate(sorted(nx.connected_components(h), key=min)):
        labels[list(comp)] = label
    return labels


def test_connected_components_random():
    rng = np.random.default_rng(19)
    graphs = []
    for _ in range(20):
        n = int(rng.integers(1, 40))
        graphs.append((n, random_edge_array(rng, n, 0.08)))
    for n in (1, 2, 50, 3000):
        # mostly isolated nodes: a few random edges
        e = rng.integers(0, n, size=(n // 10, 2))
        graphs.append((n, e[e[:, 0] != e[:, 1]]))
        # one long path, and two interleaved ones, in permuted id order
        perm = rng.permutation(n)
        graphs += [(n, np.column_stack([perm[:-step], perm[step:]])) for step in (1, 2)]
    for n, e in graphs:
        keys = _sorted_unique(e.min(axis=1) * n + e.max(axis=1))
        edges = np.column_stack([keys // n, keys % n])
        labels = connected_components(build_csr(edges, n))
        assert labels.tolist() == components_oracle(n, edges).tolist()
