"""Graph containers, node clusterings, and edge-list file I/O.

Everything downstream works on simple undirected graphs. Node ids are
densified to 0..n-1 at load time (ascending by external label) and the
original labels are restored on output, so writing back a loaded graph
round-trips exactly.

Edge lists and clusterings are parsed by one of two paths that return the
same (m, 2) int64 array. A file whose bytes prove it well formed (only
ASCII digits, '-', spaces, tabs and LF or CRLF line ends; every token an
integer of at most 18 digits; zero or two tokens on every line) is parsed
in bulk by numpy. Any other file, with comments, other whitespace or
anything malformed, runs a loop over its lines, which accepts what int()
accepts and names the first bad line. A value outside int64 is such a
line.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

COMMENT_PREFIXES = ("#", "%")


class GraphFormatError(ValueError):
    """Malformed edge-list or clustering file."""


# ===== Edge containers =====


class EdgeSet:
    """Deduplicated set of undirected edges stored as (u, v) with u < v.

    Membership and insertion are amortized O(1); self-loops are rejected.
    Iteration order is unspecified, use to_array() for the canonical
    lexicographic ordering. The package itself passes edges between
    functions only as canonical arrays; this class is kept public API.
    """

    __slots__ = ("_edges",)

    def __init__(self, edges=None):
        self._edges = set()
        if edges is not None:
            for u, v in edges:
                self.add(int(u), int(v))

    def add(self, u: int, v: int) -> bool:
        """Insert edge {u, v}. Returns False when it was already present."""
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if u > v:
            u, v = v, u
        before = len(self._edges)
        self._edges.add((u, v))
        return len(self._edges) != before

    def __contains__(self, edge) -> bool:
        u, v = edge
        if u > v:
            u, v = v, u
        return (u, v) in self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self):
        return iter(self._edges)

    def to_array(self) -> np.ndarray:
        """Edges as an (m, 2) int64 array sorted lexicographically."""
        if not self._edges:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.array(sorted(self._edges), dtype=np.int64)
        return arr


@dataclass(frozen=True)
class CsrGraph:
    """Immutable undirected graph in compressed sparse row form.

    offsets has length n+1 with offsets[n] == 2m; cols holds each node's
    neighbors as a sorted run. Both directions of every edge are stored,
    there are no self-loops and no duplicates.
    """

    n: int
    m: int
    offsets: np.ndarray
    cols: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def edge_array(self) -> np.ndarray:
        """Canonical (m, 2) edge array, u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = src < self.cols
        return np.column_stack([src[keep], self.cols[keep]])


def build_csr(edges, n: int) -> CsrGraph:
    """Build a CsrGraph from an (m, 2) array of distinct undirected edges.

    All endpoints must be < n. The layout is a counting pass over edge
    endpoints followed by a deterministic fill, so the result does not
    depend on input ordering.
    """
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.size:
        if arr.min() < 0 or arr.max() >= n:
            raise IndexError(f"edge endpoint out of range for n={n}")
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    counts = np.bincount(src, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # each node's neighbors as a sorted run: sort the packed (src, dst) keys
    cols = np.sort(src * n + dst) % n
    return CsrGraph(n=n, m=int(arr.shape[0]), offsets=offsets, cols=cols)


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x) for a 1-d integer array, by a sort and a neighbour mask.

    numpy 2.x answers a plain np.unique with a hash table, which is several
    times slower than this on large int64 arrays.
    """
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


# ===== Clusterings =====


class Clustering:
    """Total assignment of nodes 0..n-1 to integer cluster ids.

    A node is "clustered" iff its cluster has more than one member;
    otherwise it is a singleton (outlier). cluster_ids are the sorted
    unique ids and index[v] is the position of node v's cluster in them,
    so cluster_ids[index] == assignment. Every per-node cluster lookup
    reads index.
    """

    def __init__(self, assignment):
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self.cluster_ids, self.index, self._counts = np.unique(
            self.assignment, return_inverse=True, return_counts=True
        )
        # members grouped by cluster: stable argsort keeps node ids ascending
        self._order = np.argsort(self.assignment, kind="stable")
        self._bounds = np.concatenate(([0], np.cumsum(self._counts)))

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def clustered_mask(self) -> np.ndarray:
        return self._counts[self.index] > 1

    @property
    def singleton_nodes(self) -> np.ndarray:
        return np.flatnonzero(self._counts[self.index] == 1)

    @property
    def grouped(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, bounds): node ids grouped by cluster, in cluster_ids order
        and ascending within a cluster, so the members of cluster_ids[k]
        are order[bounds[k]:bounds[k + 1]]."""
        return self._order, self._bounds


# ===== File I/O =====


# tokens the fast path admits have at most this many digits, so every one
# fits in int64 and int() of it gives the same value
_FAST_MAX_DIGITS = 18
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _fast_int_pairs(data: bytes):
    """The (m, 2) array the line loop would return for data, or None.

    Returns an array only when the bytes alone prove that the loop would
    accept every line: only ASCII digits, '-', space, tab, CR and LF occur;
    every CR ends a CRLF; every token is -?[0-9]{1,18}; and every line
    holds zero or two tokens. Anything else returns None and goes to the
    loop, which names the offending line.
    """
    if data.translate(None, b"0123456789- \t\r\n") or \
            data.count(b"\r") != data.count(b"\r\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # digits and '-' are the only admitted bytes above the space
    word = np.zeros(len(buf) + 2, dtype=bool)
    np.greater(buf, ord(" "), out=word[1:-1])
    starts = np.flatnonzero(word[1:] > word[:-1])
    if not len(starts):
        return np.empty((0, 2), dtype=np.int64)
    ends = np.flatnonzero(word[:-1] > word[1:])
    del word
    # a '-' only leads a token, and at least one digit follows it
    signed = buf[starts] == ord("-")
    digits = ends - starts - signed
    if data.count(b"-") != np.count_nonzero(signed) or \
            digits.min() < 1 or digits.max() > _FAST_MAX_DIGITS:
        return None
    # line number of each token; tokens pair up within lines
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    if len(line) % 2 or (line[0::2] != line[1::2]).any() or \
            (line[2::2] <= line[1:-1:2]).any():
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if len(values) != len(starts):
        return None
    return values.reshape(-1, 2)


def _parse_int_pairs(path) -> np.ndarray:
    """Parse a two-integer-column text file into an (m, 2) int64 array.

    Skips blank lines and lines starting with '#' or '%'; raises
    GraphFormatError naming the first offending line. A file that
    _fast_int_pairs proves well formed is parsed in bulk; any other runs
    the line loop.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise GraphFormatError(f"{path}: file not found")
    fast = _fast_int_pairs(data)
    if fast is not None:
        return fast
    # the text read_text gives: UTF-8 with universal newlines
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    pairs = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(COMMENT_PREFIXES):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"{path}: line {line_no}: expected two integer columns, got {len(parts)}"
            )
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"{path}: line {line_no}: non-integer token in {stripped!r}"
            )
        if not (_INT64_MIN <= a <= _INT64_MAX and _INT64_MIN <= b <= _INT64_MAX):
            raise GraphFormatError(
                f"{path}: line {line_no}: integer outside the int64 range in {stripped!r}"
            )
        pairs.append((a, b))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@dataclass
class LoadResult:
    """Loaded edge list with the densified id space.

    edges is the canonical (m, 2) int64 array in internal ids: u < v in
    every row, rows sorted lexicographically, no duplicates. labels maps
    internal node id -> external file label (ascending), so internal
    ordering agrees with external label ordering everywhere.
    """

    edges: np.ndarray
    labels: np.ndarray
    n: int
    self_loops_dropped: int
    duplicates_dropped: int


def load_edge_list(path) -> LoadResult:
    """Read an undirected edge list into internal dense ids.

    Self-loops and duplicate edges (either orientation) are dropped and
    counted. The node universe is every label mentioned in the file.
    """
    arr = _parse_int_pairs(path)
    if not len(arr):
        raise GraphFormatError(f"{path}: no edges found")
    loops = arr[:, 0] == arr[:, 1]
    self_loops = int(loops.sum())
    labels = _sorted_unique(arr.ravel())
    data = arr[~loops]
    u = np.searchsorted(labels, data[:, 0])
    v = np.searchsorted(labels, data[:, 1])
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    n = len(labels)
    keys = _sorted_unique(lo * n + hi)
    duplicates = int(len(lo) - len(keys))
    edges = np.column_stack([keys // n, keys % n])
    if self_loops or duplicates:
        log.info(
            "%s: dropped %d self-loops and %d duplicate edges",
            path, self_loops, duplicates,
        )
    return LoadResult(
        edges=edges,
        labels=labels,
        n=n,
        self_loops_dropped=self_loops,
        duplicates_dropped=duplicates,
    )


def _tsv_rows(rows: np.ndarray) -> str:
    """An (m, 2) integer array as m "a<TAB>b" lines, built in one format."""
    return ("%d\t%d\n" * len(rows)) % tuple(rows.ravel().tolist())


def write_edge_list(edges, labels, path) -> None:
    """Write a canonical edge array under its external labels, tab separated.

    Rows come out in the array's canonical order, so identical edge sets
    always produce identical bytes. An empty array produces an empty file.
    """
    arr = np.asarray(edges)
    labels = np.asarray(labels)
    path = Path(path)
    if arr.size == 0:
        path.write_text("", encoding="utf-8")
        return
    # labels are ascending, so external pairs stay canonical and sorted
    path.write_text(_tsv_rows(labels[arr]), encoding="utf-8")


def load_clustering(path, labels) -> Clustering:
    """Read a "node cluster" two-column file covering a graph's node universe.

    Every graph node must get exactly one cluster; unknown, repeated or
    missing nodes are an error naming the offender. Of an unknown and a
    repeated node, the one on the earlier line is named.
    """
    pairs = _parse_int_pairs(path)
    labels = np.asarray(labels)
    n = len(labels)
    idx = np.searchsorted(labels, pairs[:, 0])
    known = idx < n
    known[known] = labels[idx[known]] == pairs[known, 0]
    rows = np.flatnonzero(known)
    # a known row repeats a node when it is not that node's first row
    _, first = np.unique(idx[rows], return_index=True)
    offending = ~known
    offending[rows] = True
    offending[rows[first]] = False
    if offending.any():
        row = int(np.argmax(offending))
        node_label = int(pairs[row, 0])
        if not known[row]:
            raise GraphFormatError(
                f"{path}: clustering mentions unknown node {node_label}"
            )
        raise GraphFormatError(
            f"{path}: node {node_label} assigned more than once"
        )
    assignment = np.full(n, -1, dtype=np.int64)
    assignment[idx] = pairs[:, 1]
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if not seen.all():
        missing = int(labels[int(np.flatnonzero(~seen)[0])])
        raise GraphFormatError(f"{path}: node {missing} missing from clustering")
    return Clustering(assignment)


def write_clustering(c: Clustering, labels, path) -> None:
    """Write a clustering as "node cluster" rows sorted by node label."""
    rows = np.column_stack([np.asarray(labels, dtype=np.int64), c.assignment])
    Path(path).write_text(_tsv_rows(rows), encoding="utf-8")


# ===== Traversal helpers =====


def gather_neighbors(g: CsrGraph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of the given nodes (with repeats)."""
    counts = g.offsets[nodes + 1] - g.offsets[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(g.offsets[nodes], counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return g.cols[starts + within]


def bfs_distances(g: CsrGraph, source: int) -> np.ndarray:
    """Hop distance from source to every node; -1 where unreachable."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        nb = gather_neighbors(g, frontier)
        frontier = _sorted_unique(nb[dist[nb] < 0])
        level += 1
        dist[frontier] = level
    return dist


def connected_components(g: CsrGraph) -> np.ndarray:
    """Component label per node; labels assigned by ascending smallest member."""
    labels = np.full(g.n, -1, dtype=np.int64)
    current = 0
    for s in range(g.n):
        if labels[s] >= 0:
            continue
        labels[s] = current
        frontier = np.array([s], dtype=np.int64)
        while frontier.size:
            nb = gather_neighbors(g, frontier)
            nb = _sorted_unique(nb[labels[nb] < 0])
            labels[nb] = current
            frontier = nb
        current += 1
    return labels
