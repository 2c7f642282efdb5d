"""Compact binary serialization of graphs and AH indexes.

The paper's §7 names the index's memory footprint as future work ("as is
the case for mobile devices").  This module provides a dependency-free
binary format for the query-time state of an :class:`AHIndex` — levels,
ranks, the upward search graphs with their two-hop middles, and the grid
pyramid — using ``array``-packed primitives rather than pickle, so the
on-disk footprint is close to the information-theoretic content and the
file is loadable without trusting arbitrary code execution.

Index format (little-endian)::

    magic  b"AHIDX1\\n"
    header: n, h, flags, then pyramid origin_x/origin_y/side as doubles
    arrays: levels[n] (int32), rank[n] (int32)
    up_out: counts[n] (int32), targets (int32), weights (float64),
            middles (int32, -1 for original edges)
    up_in:  same layout

Elevating tables are *not* serialized (they are an optional query
accelerator, cheaply rebuilt); a loaded index answers every query the
saved one did, with ``elevating`` off.

Since the graph substrate is CSR (flat parallel arrays), graphs now
serialize as straight ``array.tofile`` dumps of those columns — *both*
directions, so :func:`load_graph` hands the arrays to
:meth:`Graph.from_csr` verbatim and loading skips re-deriving the reverse
adjacency::

    magic  b"GCSR1\\n"
    header: n, m (int64)
    xs[n], ys[n]                     (float64)
    out_head[n+1] (int64), out_dst[m] (int64), out_w[m] (float64)
    in_head[n+1]  (int64), in_src[m] (int64), in_w[m]  (float64)

Hub-label indexes (:class:`repro.baselines.hl.HubLabelIndex`) get their
own ``HL1`` section: the label columns are already flat parallel arrays,
so the dump is a straight ``array.tofile`` of the eight label columns
plus the shortcut-middle triples that path unpacking needs::

    magic  b"HLIDX1\\n"
    header: n (int64)
    forward:  head[n+1] (int64), count (int64),
              hub (int64), dist (float64), parent (int64)
    backward: same layout
    middles:  count (int64), a (int64), b (int64), mid (int64)

The loader checks each HL1 side once (heads, hub range and order per
node, roots, parents within the node's own label, no parent cycle) and
raises :class:`BundleCorrupted` on a malformed one, so the query
kernels never index by a bad value.

``HL2`` is the **compact** hub-label section (the default writer since
the compact-column PR) — same information, ~3-4x fewer bytes, decoded
back to exact values so queries are bit-identical to the flat path::

    magic  b"HLIDX2\\n"
    header: n (int64)
    per direction (forward, then backward):
      dist-encoding byte: 0 = i4, 1 = f8, 2 = dd
      entry count (int64)
      lengths:  per-node label sizes        (uvarint stream, framed)
      hubs:     per node: first hub absolute, then ``delta - 1``
                (hubs are strictly ascending per node)  (uvarint, framed)
      parents:  per entry: 0 = root, else 1 + position of the parent hub
                within the node's own label slice       (uvarint, framed)
      dists:    i4 -> raw int32; f8 -> raw float64;
                dd -> dict size (int64) + float64 delta dictionary
                (sorted by descending frequency, value) + per-entry
                uvarint dictionary indexes (framed)
    middles: count (int64), a (int32), b (int32), mid (int32)

The distance encoding is picked per direction by an **exactness
guard**, in order: ``i4`` when every distance is a non-negative
integral value below 2^31 (int32 -> float64 casts are exact, so query
sums are unchanged); else ``dd`` (*delta dictionary*) when every
entry's distance bit-exactly equals its parent entry's distance plus a
stored float64 delta — true by construction for labels grown one edge
relaxation at a time, and verified entry by entry at save; else raw
``f8``.  Quantisation can therefore never change an answer: lossy
cases fall back to wider sections automatically.

:func:`save_bundle` / :func:`load_bundle` concatenate a graph section
with an index section (AH or HL — the magic picks the loader) so one
file round-trips a deployable (graph, index) pair.

Bundles end with a **CRC trailer** (the robustness PR)::

    per section: offset (int64), length (int64), crc32 (uint32)
    count  (int64)
    magic  b"BCRC1\\n"

The magic sits *last* so the trailer is locatable from the file end
without parsing any section, and so every pre-trailer bundle remains
loadable: :func:`load_bundle` verifies each section's CRC32 before
decoding anything and raises :class:`BundleCorrupted` naming the
failing section — a torn or bit-flipped bundle fails typed instead of
serving garbage — while a trailer-less (legacy) bundle loads with a
one-time :class:`RuntimeWarning`.  Raw ``struct.error`` / ``EOFError``
from a damaged legacy file are wrapped into :class:`BundleCorrupted`
too, so callers need exactly one except clause.

All flat sections move as whole-column ``tobytes`` blocks (loaded back
with ``frombuffer`` under the numpy backend) — no per-entry ``struct``
packing anywhere on the fast paths, and the same bytes regardless of
which :mod:`repro.backend` produced the columns, so bundles are
byte-identical and freely interchangeable between backends.  The HL2
varint/delta codec is vectorised under numpy (whole-column passes) and
runs as pure-python loops without it; the pure loops are the
byte-identical reference, so HL2 sections are the same bytes from
either backend and decode to the same column types and values.  A
malformed HL2 stream (bad varint, parent outside its slice, index past
the delta dictionary, count mismatch, parent cycle) raises
:class:`BundleCorrupted` at load on both paths.

Buffer sources (the worker-tier substrate)
------------------------------------------
Every loader also accepts an in-memory buffer (``bytes`` / ``bytearray``
/ ``memoryview``) or, via ``mmap=True``, a path to memory-map — the two
transports a multi-process serving tier boots engine replicas from
(:mod:`repro.serve.pool`).  Buffer loads are **zero-copy for the big
read-only sections**: the CSR graph columns come up as
``numpy.frombuffer`` views straight over the buffer under the numpy
backend, and the hub-label columns come up as ``memoryview`` casts on
*both* backends (plain-scalar indexing for the two-pointer merge-join,
``numpy.frombuffer``-viewable for the batched kernels).  An mmap'd
bundle therefore shares its label pages between every worker process
that maps it — N replicas, one page-cache copy.  :func:`bundle_bytes`
is the matching writer-side helper (one in-memory bundle to hand a
worker over a pipe).
"""

from __future__ import annotations

import io
import struct
import sys
import warnings
import zlib
from array import array
from bisect import bisect_left
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

from .. import backend
from ..baselines.base import (
    DistanceRequest,
    OneToManyRequest,
    Request,
    TableRequest,
)
from ..baselines.ch import ContractionResult
from ..baselines.hl import HubLabelIndex
from ..graph.graph import Graph
from ..spatial.grid import GridPyramid, NodeGrid
from .ah import AHIndex

__all__ = [
    "BundleCorrupted",
    "save_index",
    "load_index",
    "index_bytes",
    "bundle_bytes",
    "save_hl_index",
    "load_hl_index",
    "save_graph",
    "load_graph",
    "save_bundle",
    "load_bundle",
    "inspect_bundle",
    "pack_requests",
    "unpack_requests",
    "main",
]

_MAGIC = b"AHIDX1\n"
_HL_MAGIC = b"HLIDX1\n"
_HL2_MAGIC = b"HLIDX2\n"
_GRAPH_MAGIC = b"GCSR1\n"

#: HL2 distance-section encodings, in exactness-guard order.
_DIST_I4, _DIST_F8, _DIST_DD = 0, 1, 2
_DIST_ENC_NAMES = {_DIST_I4: "i4", _DIST_F8: "f8", _DIST_DD: "dd"}

_FLAG_PROXIMITY = 1
_FLAG_STALL = 2

#: Bundle CRC trailer (written by :func:`save_bundle`): per-section
#: ``<qqI`` (offset, length, crc32) entries, then the entry count, then
#: the magic — magic LAST so the trailer is found from the file end.
_TRAILER_MAGIC = b"BCRC1\n"
_TRAILER_ENTRY = struct.Struct("<qqI")
_TRAILER_TAIL = 8 + len(_TRAILER_MAGIC)  # count + magic

_MAGIC_NAMES = {
    _MAGIC: "AHIDX1",
    _HL_MAGIC: "HLIDX1",
    _HL2_MAGIC: "HLIDX2",
    _GRAPH_MAGIC: "GCSR1",
}


class BundleCorrupted(ValueError):
    """A serialized bundle/index/graph failed CRC verification or decode.

    ``section`` names where the damage was detected (a section magic
    such as ``"GCSR1"``, or ``"trailer"`` for a mangled trailer);
    ``detail`` says what went wrong.  Subclasses :class:`ValueError` so
    every pre-existing ``except ValueError`` handler keeps working.
    """

    def __init__(self, section: str, detail: str) -> None:
        self.section = section
        self.detail = detail
        super().__init__(f"bundle section {section!r} is corrupted: {detail}")

    def __reduce__(self):
        # Two required __init__ args, one message in .args: the default
        # exception reduce would rebuild from the message alone and
        # TypeError — and this exception crosses worker pipes (a pool
        # replica booting from a torn bundle reports it to the parent).
        return (type(self), (self.section, self.detail))


def _section_name(head: bytes, offset: int) -> str:
    for magic, name in _MAGIC_NAMES.items():
        if head.startswith(magic):
            return name
    return f"section@{offset}"


_warned_crcless = False


def _warn_crcless() -> None:
    """One warning per process for legacy (pre-``BCRC1``) bundles."""
    global _warned_crcless
    if not _warned_crcless:
        _warned_crcless = True
        warnings.warn(
            "bundle has no CRC trailer (pre-BCRC1 format); loading "
            "without integrity verification — re-save to add checksums",
            RuntimeWarning,
            stacklevel=3,
        )


class _CrcWriter:
    """Write-through wrapper that tracks crc32 + byte count per section.

    :func:`save_bundle` routes the section writers through this so the
    trailer entries come straight off the outgoing byte stream — no
    second pass, no seekability requirement on ``sink``.
    """

    __slots__ = ("_fh", "crc", "nbytes")

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        self.crc = 0
        self.nbytes = 0

    def write(self, data) -> None:
        self._fh.write(data)
        self.crc = zlib.crc32(data, self.crc)
        self.nbytes += len(data)

    def section_done(self) -> Tuple[int, int]:
        """(length, crc) of the section written so far; resets counters."""
        out = (self.nbytes, self.crc)
        self.crc = 0
        self.nbytes = 0
        return out


# ----------------------------------------------------------------------
# Flat-section I/O: tobytes / frombytes on whole columns
# ----------------------------------------------------------------------
# Every flat section moves through ``col.tobytes()`` / ``fh.read`` as one
# contiguous block: no per-entry ``struct`` packing, works with any
# file-like object (``array.tofile`` needed a real file under numpy), and
# — because stdlib arrays and numpy arrays serialise int64/float64 to the
# same little-endian bytes — the on-disk format is *backend-invariant*:
# bundles written under either backend are byte-identical
# (``tests/test_backend_parity.py`` pins this).
class _BufferReader:
    """File-like ``read()`` over a bytes-like object, serving zero-copy slices.

    Every ``read`` returns a ``memoryview`` window into the underlying
    buffer instead of a fresh ``bytes`` copy, which is what makes
    buffer/mmap loads zero-copy: ``numpy.frombuffer`` and
    ``memoryview.cast`` both view the window, and the views keep the
    buffer (and an mmap behind it) alive for as long as the loaded
    columns live.
    """

    __slots__ = ("_mv", "_pos")

    def __init__(self, buf) -> None:
        mv = memoryview(buf)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        self._mv = mv
        self._pos = 0

    def read(self, nbytes: int = -1) -> memoryview:
        if nbytes is None or nbytes < 0:
            nbytes = len(self._mv) - self._pos
        out = self._mv[self._pos : self._pos + nbytes]
        self._pos += len(out)
        return out


#: Loader sources: a path, an open binary file, or an in-memory buffer.
Source = Union[str, bytes, bytearray, memoryview, BinaryIO]


def _open_source(source: Source, use_mmap: bool = False):
    """Normalise a loader source to ``(file_like, owns_handle)``.

    ``use_mmap=True`` (paths only) memory-maps the file read-only and
    reads through a :class:`_BufferReader`, so the loaded columns view
    the mapping directly — the OS page cache backs every process that
    maps the same bundle, which is the worker-tier sharing story.  The
    mapping is kept alive by the column views and reclaimed by GC; the
    file descriptor is closed as soon as the map exists.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        return _BufferReader(source), False
    if isinstance(source, str):
        if use_mmap:
            import mmap as _mmap

            with open(source, "rb") as f:
                mapped = _mmap.mmap(f.fileno(), 0, access=_mmap.ACCESS_READ)
            return _BufferReader(mapped), False
        return open(source, "rb"), True
    if use_mmap:
        raise ValueError("mmap=True requires a filesystem path source")
    return source, False


def _read_exact(fh, nbytes: int):
    """``nbytes`` from ``fh`` — ``bytes`` from files, a zero-copy
    ``memoryview`` window from buffer sources."""
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise EOFError(
            f"truncated section: wanted {nbytes} bytes, got {len(buf)}"
        )
    return buf


def _write_col(fh: BinaryIO, col) -> None:
    fh.write(col.tobytes())


def _read_i64_col(fh, count: int):
    """An int64 column of the *active* backend, straight off the bytes."""
    return backend.index_col_from_bytes(_read_exact(fh, 8 * count))


def _read_f64_col(fh, count: int):
    """A float64 column of the *active* backend, straight off the bytes."""
    return backend.float_col_from_bytes(_read_exact(fh, 8 * count))


def _read_q_array(fh, count: int) -> array:
    """A stdlib ``array('q')`` (e.g. the shortcut-middle triples).

    Filled via ``frombytes`` rather than the ``array(typecode, buf)``
    constructor: the constructor treats a ``memoryview`` as an iterable
    of byte values and would silently build garbage from buffer sources.
    """
    out = array("q")
    out.frombytes(_read_exact(fh, 8 * count))
    return out


def _read_d_array(fh, count: int) -> array:
    out = array("d")
    out.frombytes(_read_exact(fh, 8 * count))
    return out


def _read_i32_array(fh, count: int) -> array:
    out = array("i")
    out.frombytes(_read_exact(fh, 4 * count))
    return out


def _read_label_col(fh, count: int, typecode: str):
    """One hub-label column: zero-copy from buffers, stdlib from files.

    Buffer sources (bytes / mmap) return a read-only ``memoryview``
    cast — no copy, plain Python scalars on indexing (so the two-pointer
    merge-join keeps its speed), and ``numpy.frombuffer``-viewable for
    the batched kernels — identically on both backends.  File sources
    keep returning stdlib arrays, exactly as before.
    """
    buf = _read_exact(fh, 8 * count)
    if isinstance(buf, memoryview):
        return buf.cast(typecode)
    out = array(typecode)
    out.frombytes(buf)
    return out


def _write_adjacency(
    fh: BinaryIO, adjacency: List[List[Tuple[int, float, Optional[int]]]]
) -> None:
    counts = array("i", (len(adj) for adj in adjacency))
    targets = array("i")
    middles = array("i")
    weights = array("d")
    for adj in adjacency:
        for v, w, mid in adj:
            targets.append(v)
            weights.append(w)
            middles.append(-1 if mid is None else mid)
    _write_col(fh, counts)
    fh.write(struct.pack("<q", len(targets)))
    _write_col(fh, targets)
    _write_col(fh, weights)
    _write_col(fh, middles)


def _read_adjacency(
    fh: BinaryIO, n: int
) -> List[List[Tuple[int, float, Optional[int]]]]:
    counts = _read_i32_array(fh, n)
    (total,) = struct.unpack("<q", _read_exact(fh, 8))
    # tolist() up front so the tuple-building loop below handles plain
    # Python ints/floats only (one C conversion pass per column).
    targets = _read_i32_array(fh, total).tolist()
    weights = _read_d_array(fh, total).tolist()
    middles = _read_i32_array(fh, total).tolist()
    adjacency: List[List[Tuple[int, float, Optional[int]]]] = []
    pos = 0
    for count in counts:
        nxt = pos + count
        adjacency.append(
            [
                (v, w, None if mid < 0 else mid)
                for v, w, mid in zip(
                    targets[pos:nxt], weights[pos:nxt], middles[pos:nxt]
                )
            ]
        )
        pos = nxt
    return adjacency


def save_index(index: AHIndex, sink: Union[str, BinaryIO]) -> None:
    """Write the query-time state of ``index`` to ``sink``."""
    fh: BinaryIO
    own = isinstance(sink, str)
    fh = open(sink, "wb") if own else sink  # type: ignore[assignment]
    try:
        res = index._res
        flags = (_FLAG_PROXIMITY if index.proximity else 0) | (
            _FLAG_STALL if index.stall_on_demand else 0
        )
        pyramid = index.node_grid.pyramid
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<iii3d",
                index.graph.n,
                index.h,
                flags,
                pyramid.origin_x,
                pyramid.origin_y,
                pyramid.side,
            )
        )
        _write_col(fh, array("i", index.levels))
        _write_col(fh, array("i", res.rank))
        _write_adjacency(fh, res.up_out)
        _write_adjacency(fh, res.up_in)
    finally:
        if own:
            fh.close()


def load_index(source: Source, graph: Graph, *, mmap: bool = False) -> AHIndex:
    """Reconstruct a queryable :class:`AHIndex` from ``source``.

    ``source`` may be a path, an open binary file, or an in-memory
    buffer; ``mmap=True`` memory-maps a path source.  ``graph`` must be
    the network the index was built on (used for path validation
    metadata and the node-to-cell mapping); a node-count mismatch is
    rejected.
    """
    fh, own = _open_source(source, mmap)
    try:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not an AH index file (bad magic)")
        try:
            return _load_index_body(fh, graph)
        except (struct.error, EOFError) as exc:
            raise BundleCorrupted("AHIDX1", str(exc)) from exc
    finally:
        if own:
            fh.close()


def _load_index_body(fh: BinaryIO, graph: Graph) -> AHIndex:
    """Read everything after the ``AHIDX1`` magic and rebuild the index."""
    n, h, flags, ox, oy, side = struct.unpack("<iii3d", fh.read(36))
    if n != graph.n:
        raise ValueError(
            f"index was built for {n} nodes but the graph has {graph.n}"
        )
    levels = _read_i32_array(fh, n)
    rank = _read_i32_array(fh, n)
    up_out = _read_adjacency(fh, n)
    up_in = _read_adjacency(fh, n)

    middle = {}
    shortcut_count = 0
    for u, adj in enumerate(up_out):
        for v, w, mid in adj:
            if mid is not None:
                middle[(u, v)] = mid
                shortcut_count += 1
    for u, adj in enumerate(up_in):
        for v, w, mid in adj:
            if mid is not None and (v, u) not in middle:
                middle[(v, u)] = mid
                shortcut_count += 1

    index = AHIndex.__new__(AHIndex)
    index.graph = graph
    index.proximity = bool(flags & _FLAG_PROXIMITY)
    index.stall_on_demand = bool(flags & _FLAG_STALL)
    index.use_elevating = False
    index.build_times = {}
    index.assignment = None  # not serialized; query path never reads it
    index.ranking = None
    index.levels = list(levels)
    index.h = h
    index.node_grid = NodeGrid(graph, GridPyramid(ox, oy, side, h))
    index._res = ContractionResult(
        rank=list(rank),
        up_out=up_out,
        up_in=up_in,
        middle=middle,
        shortcut_count=shortcut_count,
    )
    index._elev_f = {}
    index._elev_b = {}
    return index


def index_bytes(
    index: Union[AHIndex, HubLabelIndex], *, compact: bool = True
) -> int:
    """Size of the serialized index in bytes (Figure 10a in real units)."""
    buf = io.BytesIO()
    if isinstance(index, HubLabelIndex):
        save_hl_index(index, buf, compact=compact)
    else:
        save_index(index, buf)
    return buf.tell()


def bundle_bytes(
    index: Union[AHIndex, HubLabelIndex], *, compact: bool = True
) -> bytes:
    """The full :func:`save_bundle` image as one in-memory ``bytes``.

    The transport :mod:`repro.serve.pool` ships to worker processes: one
    serialization in the parent, then each worker boots its replica via
    ``load_bundle(blob)`` with the big columns viewing the blob in place.
    Compact by default — the HL2 section shrinks the bytes a worker boot
    moves over its pipe ~3x; pass ``compact=False`` for the flat HL1
    image whose label columns load as zero-copy views.
    """
    buf = io.BytesIO()
    save_bundle(index, buf, compact=compact)
    return buf.getvalue()


# ----------------------------------------------------------------------
# HL1: hub-label indexes (flat int64/float64 columns)
# ----------------------------------------------------------------------
def _coerce_col(col, typecode: str):
    """An 8-byte-wide image of a label column (no copy when already 8B).

    Lets the flat HL1 writer accept a compact-domain index (int32
    columns, possibly int32 distances): widening int32 -> int64/float64
    is exact, so a compact index saved with ``compact=False`` produces
    the same HL1 bytes as the original flat index did.
    """
    if getattr(col, "itemsize", 8) == 8:
        return col
    return array(typecode, col)


def _write_label_side(
    fh: BinaryIO, head: array, hub: array, dist: array, parent: array
) -> None:
    hub = _coerce_col(hub, "q")
    _write_col(fh, _coerce_col(head, "q"))
    fh.write(struct.pack("<q", len(hub)))
    _write_col(fh, hub)
    _write_col(fh, _coerce_col(dist, "d"))
    _write_col(fh, _coerce_col(parent, "q"))


def _read_label_side(fh, n: int) -> Tuple:
    # Label columns are backend-independent on the read path: stdlib
    # arrays from file sources (the per-query two-pointer merge-join
    # indexes them scalar-by-scalar; the numpy kernels wrap them in
    # zero-copy views), read-only memoryview casts from buffer/mmap
    # sources (same scalar indexing, zero copy — see _read_label_col).
    head = _read_label_col(fh, n + 1, "q")
    (total,) = struct.unpack("<q", _read_exact(fh, 8))
    hub = _read_label_col(fh, total, "q")
    dist = _read_label_col(fh, total, "d")
    parent = _read_label_col(fh, total, "q")
    return head, hub, dist, parent


def _check_hl1_side(side: Tuple, n: int) -> None:
    """Raise ``BundleCorrupted("HLIDX1", ...)`` unless one flat label
    side is well-formed: heads run from 0 to the entry count without
    decreasing, each row's hubs strictly increase within ``[0, n)``,
    each root entry is its own node, every other parent is a hub of the
    same row, and parents form no cycle.  The query kernels (the C tier
    included) index by these values unchecked."""
    head, hub, _, parent = side
    total = len(hub)
    if head[0] != 0 or head[n] != total:
        raise BundleCorrupted("HLIDX1", "label heads do not span the entries")
    pabs = [-1] * total  # absolute parent index, for the cycle check
    for u in range(n):
        lo, hi = head[u], head[u + 1]
        if not lo <= hi <= total:
            raise BundleCorrupted("HLIDX1", "label heads out of order")
        prev = -1
        for k in range(lo, hi):
            h = hub[k]
            if not prev < h < n:
                raise BundleCorrupted(
                    "HLIDX1", "hub ids out of range or not strictly increasing"
                )
            prev = h
        for k in range(lo, hi):
            p = parent[k]
            if p == -1:
                if hub[k] != u:
                    raise BundleCorrupted(
                        "HLIDX1", "label root is not its own node"
                    )
                continue
            j = bisect_left(hub, p, lo, hi)
            if j == hi or hub[j] != p:
                raise BundleCorrupted(
                    "HLIDX1", "parent is not a hub of the same label row"
                )
            pabs[k] = j
    _parent_order(pabs, "HLIDX1")  # raises on a parent cycle


def save_hl_index(
    index: HubLabelIndex, sink: Union[str, BinaryIO], *, compact: bool = True
) -> None:
    """Write a hub-label index's query-time state to ``sink``.

    ``compact=True`` (the default) writes the delta-encoded ``HL2``
    section — ~3-4x smaller, decoded back to exact values (see the
    module docstring's exactness guard).  ``compact=False`` keeps the
    flat ``HL1`` dump: label columns verbatim, zero-copy viewable
    straight off a buffer/mmap load.  Either way the shortcut-middle
    dict rides along as parallel int columns so path unpacking survives
    the round-trip, and both loaders answer identically.
    """
    own = isinstance(sink, str)
    fh: BinaryIO = open(sink, "wb") if own else sink  # type: ignore[assignment]
    try:
        if compact and index.graph.n < 2**31:
            _save_hl2(index, fh)
            return
        fh.write(_HL_MAGIC)
        fh.write(struct.pack("<q", index.graph.n))
        _write_label_side(
            fh, index.fwd_head, index.fwd_hub, index.fwd_dist, index.fwd_parent
        )
        _write_label_side(
            fh, index.bwd_head, index.bwd_hub, index.bwd_dist, index.bwd_parent
        )
        middle = index._middle
        fh.write(struct.pack("<q", len(middle)))
        if backend.use_numpy():
            np = backend.np
            pairs = np.fromiter(
                middle.keys(), dtype=np.dtype((np.int64, 2)), count=len(middle)
            ).reshape(len(middle), 2)
            _write_col(fh, np.ascontiguousarray(pairs[:, 0]))
            _write_col(fh, np.ascontiguousarray(pairs[:, 1]))
            _write_col(
                fh, np.fromiter(middle.values(), dtype=np.int64, count=len(middle))
            )
        else:
            a_col = array("q")
            b_col = array("q")
            mid_col = array("q")
            for (a, b), mid in middle.items():
                a_col.append(a)
                b_col.append(b)
                mid_col.append(mid)
            _write_col(fh, a_col)
            _write_col(fh, b_col)
            _write_col(fh, mid_col)
    finally:
        if own:
            fh.close()


def load_hl_index(
    source: Source, graph: Graph, *, mmap: bool = False
) -> HubLabelIndex:
    """Reconstruct a queryable :class:`HubLabelIndex` from ``source``.

    The loaded index answers distance *and* path queries without any
    rebuilding: labels, parent hubs and shortcut middles all come off
    the file.  The magic picks the decoder: flat ``HL1`` buffer sources
    (``bytes`` or ``mmap=True`` paths) give zero-copy read-only label
    columns (see :func:`_read_label_col`); compact ``HL2`` sections are
    decoded into int32 columns whose queries are bit-identical to the
    flat path's.
    """
    fh, own = _open_source(source, mmap)
    try:
        magic = fh.read(len(_HL_MAGIC))
        try:
            if magic == _HL_MAGIC:
                return _load_hl_body(fh, graph)
            if magic == _HL2_MAGIC:
                return _load_hl2_body(fh, graph)
        except (struct.error, EOFError) as exc:
            section = "HLIDX1" if magic == _HL_MAGIC else "HLIDX2"
            raise BundleCorrupted(section, str(exc)) from exc
        raise ValueError("not a hub-label index file (bad magic)")
    finally:
        if own:
            fh.close()


def _load_hl_body(fh: BinaryIO, graph: Graph) -> HubLabelIndex:
    """Read everything after the ``HLIDX1`` magic and rebuild the index."""
    (n,) = struct.unpack("<q", fh.read(8))
    if n != graph.n:
        raise ValueError(
            f"index was built for {n} nodes but the graph has {graph.n}"
        )
    fwd = _read_label_side(fh, n)
    bwd = _read_label_side(fh, n)
    _check_hl1_side(fwd, n)
    _check_hl1_side(bwd, n)
    (mcount,) = struct.unpack("<q", _read_exact(fh, 8))
    a_col = _read_q_array(fh, mcount).tolist()
    b_col = _read_q_array(fh, mcount).tolist()
    mid_col = _read_q_array(fh, mcount).tolist()

    index = HubLabelIndex.__new__(HubLabelIndex)
    index.graph = graph
    index.fwd_head, index.fwd_hub, index.fwd_dist, index.fwd_parent = fwd
    index.bwd_head, index.bwd_hub, index.bwd_dist, index.bwd_parent = bwd
    index._middle = dict(zip(zip(a_col, b_col), mid_col))
    # View cache + target-inversion memo (PR 4 state): without this a
    # loaded index would crash on its first distance_table call.
    index._init_runtime_state()
    return index


# ----------------------------------------------------------------------
# HL2: compact hub-label sections (varint streams + delta-dict dists)
# ----------------------------------------------------------------------
# One format, two implementations.  Under the numpy backend the codec
# runs as whole-column passes (the ``_np`` functions): uvarints from
# per-value byte counts and shifts, hub deltas by segmented cumsum,
# parent positions by ``searchsorted`` over ``(row, hub)`` keys, the
# ``dd`` dictionary by ``unique`` + ``lexsort``, and ``dd`` distances
# resolved one parent-forest level at a time.  The pure loops are the
# only path without numpy and the reference the numpy passes are held
# to: both write the same bytes, decode to the same column types and
# values (every decoded distance is the same single float64 addition),
# and make the same checks.  A malformed stream raises
# ``BundleCorrupted("HLIDX2", ...)`` once, at load, so the query loops
# never see it.

#: Every HL2 stream value lands in (or indexes) an int32 column, so a
#: uvarint past five bytes or 2^31 - 1 can only come from a bad stream.
_HL2_MAX = 0x7FFFFFFF
_HL2_VARINT_BYTES = 5


def _hl2_corrupt(detail: str) -> BundleCorrupted:
    return BundleCorrupted("HLIDX2", detail)


def _uvarint_append(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _uvarint_decode(buf, max_bytes: int = 10) -> List[int]:
    """Every uvarint in ``buf`` (the streams are framed, so bounds are
    known); one flat pass, no per-value function calls.  A value longer
    than ``max_bytes`` is rejected rather than grown without bound."""
    out: List[int] = []
    append = out.append
    value = 0
    shift = 0
    limit = 7 * max_bytes
    for b in buf:
        if b & 0x80:
            value |= (b & 0x7F) << shift
            shift += 7
            if shift >= limit:
                raise ValueError("overlong uvarint")
        else:
            append(value | (b << shift))
            value = 0
            shift = 0
    if shift:
        raise ValueError("truncated uvarint stream")
    return out


def _uvarint_encode_np(values) -> bytes:
    """Canonical uvarints of a non-negative int64 column.

    Builds a ``(value, byte)`` matrix of 7-bit groups with continuation
    bits, then keeps each row's first ``nbytes`` cells in row order —
    one pass per byte of the widest value, not one per value.
    """
    np = backend.np
    if not values.size:
        return b""
    if int(values.min()) < 0:
        raise ValueError("uvarint of a negative value")
    width = max(1, (int(values.max()).bit_length() + 6) // 7)
    groups = np.empty((values.size, width), dtype=np.uint8)
    keep = np.ones((values.size, width), dtype=bool)
    for g in range(width):
        high = values >> (7 * g)
        groups[:, g] = high & 0x7F
        if g:
            keep[:, g] = high != 0
            groups[:, g - 1] |= keep[:, g].view(np.uint8) << 7
    return groups[keep].tobytes()


def _uvarint_decode_np(buf):
    """:func:`_uvarint_decode` as an int64 column, for HL2 streams.

    Each value starts as its terminator byte (the highest 7-bit group);
    then, while the byte before is a continuation byte, the value
    shifts up and takes that byte's group below.  Only multi-byte
    values take part after the first pass.
    """
    np = backend.np
    raw = np.frombuffer(buf, dtype=np.uint8)
    if raw.size and raw[-1] & 0x80:
        raise ValueError("truncated uvarint stream")
    pos = np.flatnonzero(raw < 0x80)
    values = raw[pos].astype(np.int64)
    # raw[-1] is a terminator, so a walk off the front stops there.
    pos -= 1
    live = np.flatnonzero(raw[pos] & 0x80)
    pos = pos[live]
    for _ in range(_HL2_VARINT_BYTES - 1):
        if not live.size:
            break
        values[live] = (values[live] << 7) | (raw[pos] & 0x7F)
        pos -= 1
        more = raw[pos] >= 0x80
        live = live[more]
        pos = pos[more]
    if live.size:
        raise ValueError("overlong uvarint")
    return values


def _write_blob(fh: BinaryIO, blob: bytes) -> None:
    fh.write(struct.pack("<q", len(blob)))
    fh.write(blob)


def _read_blob(fh):
    (nbytes,) = struct.unpack("<q", _read_exact(fh, 8))
    return _read_exact(fh, nbytes)


def _read_hl2_stream(fh, expect: int, what: str, bound: int = _HL2_MAX + 1):
    """One framed HL2 uvarint stream of exactly ``expect`` values, each
    below ``bound``: an int64 column under numpy, else a list."""
    blob = _read_blob(fh)
    try:
        if backend.use_numpy():
            values = _uvarint_decode_np(blob)
            top = int(values.max()) if values.size else 0
        else:
            values = _uvarint_decode(blob, _HL2_VARINT_BYTES)
            top = max(values, default=0)
    except ValueError as exc:
        raise _hl2_corrupt(f"{what} stream: {exc}") from None
    if len(values) != expect:
        raise _hl2_corrupt(
            f"{what} stream holds {len(values)} values, expected {expect}"
        )
    if top >= bound:
        raise _hl2_corrupt(f"{what} stream: value {top} is not below {bound}")
    return values


def _encode_dists(dists, parent_pos) -> Tuple[int, bytes]:
    """Pick the narrowest *exact* distance encoding and build its payload.

    Guard order: ``i4`` when every distance is a non-negative integral
    value below 2^31 (int32 and float64 agree exactly on those, so the
    query path's sums cannot change); else ``dd`` when every entry's
    distance bit-exactly equals its parent entry's distance plus a
    float64 delta — verified here value by value, never assumed; else
    the raw ``f8`` fallback.  Deterministic, so save -> load -> save is
    byte-identical.  ``parent_pos`` holds each entry's absolute parent
    index (-1 for a root).
    """
    if backend.use_numpy():
        return _encode_dists_np(dists, parent_pos)
    i4_ok = True
    for d in dists:
        if not (0 <= d <= 0x7FFFFFFF and d == int(d)):
            i4_ok = False
            break
    if i4_ok:
        return _DIST_I4, array("i", (int(d) for d in dists)).tobytes()

    deltas = [0.0] * len(dists)
    dd_ok = True
    for k, d in enumerate(dists):
        p = parent_pos[k]
        dp = dists[p] if p >= 0 else 0.0
        delta = d - dp
        if dp + delta != d:  # reconstruction would not be bit-exact
            dd_ok = False
            break
        deltas[k] = delta
    if dd_ok:
        freq: Dict[float, int] = {}
        for delta in deltas:
            freq[delta] = freq.get(delta, 0) + 1
        values = sorted(freq, key=lambda v: (-freq[v], v))
        lookup = {v: i for i, v in enumerate(values)}
        idx_stream = bytearray()
        for delta in deltas:
            _uvarint_append(idx_stream, lookup[delta])
        payload = _dd_payload(array("d", values).tobytes(), idx_stream)
        return _DIST_DD, payload

    return _DIST_F8, array("d", (float(d) for d in dists)).tobytes()


def _dd_payload(values: bytes, idx_stream) -> bytes:
    return (
        struct.pack("<q", len(values) // 8)
        + values
        + struct.pack("<q", len(idx_stream))
        + bytes(idx_stream)
    )


def _encode_dists_np(dists, parent_pos) -> Tuple[int, bytes]:
    """:func:`_encode_dists` as whole-column passes (same bytes)."""
    np = backend.np
    d = np.asarray(dists, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        if ((d >= 0) & (d <= 0x7FFFFFFF) & (d == np.floor(d))).all():
            return _DIST_I4, d.astype("<i4").tobytes()
        parent_pos = np.asarray(parent_pos, dtype=np.int64)
        dp = d[parent_pos]
        dp[parent_pos < 0] = 0.0
        deltas = d - dp
        dp += deltas  # the reconstruction the decoder will compute
        exact = bool((dp == d).all())
    del dp
    if not exact:
        return _DIST_F8, d.astype("<f8").tobytes()
    values, inverse, freq = np.unique(
        deltas, return_inverse=True, return_counts=True
    )
    zero = np.flatnonzero(values == 0.0)
    if zero.size:
        # 0.0 and -0.0 share one dict slot; the pure dict keeps the
        # first one seen, so the stored value is the first zero delta.
        values[zero[0]] = deltas[np.argmax(deltas == 0.0)]
    del deltas
    order = np.lexsort((values, -freq))  # (-freq, value), as the pure sort
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    idx_stream = _uvarint_encode_np(rank[inverse.ravel()])
    payload = _dd_payload(values[order].astype("<f8").tobytes(), idx_stream)
    return _DIST_DD, payload


def _encode_label_side(head, hub, dist, parent) -> Tuple[int, int, bytes, bytes, bytes, bytes]:
    """One direction's columns -> compact streams.

    Returns ``(enc, count, lengths, hubs, parents, dist_payload)``.
    Hubs are strictly ascending per node, so each node stores its first
    hub absolute and then ``delta - 1``; parents become 1-based
    positions *within the node's own label slice* (0 = root), which the
    pruning invariant guarantees exist (every kept hub's search-tree
    parent is itself a kept hub).
    """
    if backend.use_numpy():
        return _encode_label_side_np(head, hub, dist, parent)
    heads = head.tolist()
    hubs = hub.tolist()
    dists = dist.tolist()
    parents = parent.tolist()
    n = len(heads) - 1
    count = len(hubs)
    lengths = bytearray()
    hub_stream = bytearray()
    parent_stream = bytearray()
    parent_pos = [-1] * count  # absolute index of each entry's parent
    for u in range(n):
        lo, hi = heads[u], heads[u + 1]
        _uvarint_append(lengths, hi - lo)
        prev = 0
        for k in range(lo, hi):
            h = hubs[k]
            _uvarint_append(hub_stream, h if k == lo else h - prev - 1)
            prev = h
            p = parents[k]
            if p < 0:
                _uvarint_append(parent_stream, 0)
            else:
                pos = bisect_left(hubs, p, lo, hi)
                if pos == hi or hubs[pos] != p:
                    raise ValueError(
                        "label parent outside its node's label slice; "
                        "cannot compact"
                    )
                parent_pos[k] = pos
                _uvarint_append(parent_stream, pos - lo + 1)
    enc, dist_payload = _encode_dists(dists, parent_pos)
    return (
        enc,
        count,
        bytes(lengths),
        bytes(hub_stream),
        bytes(parent_stream),
        dist_payload,
    )


def _encode_label_side_np(head, hub, dist, parent):
    """:func:`_encode_label_side` as whole-column passes (same bytes).

    Each stream is encoded as soon as its column is ready and the
    column dropped, and index arithmetic runs in place: on a large
    index every count-sized temporary is megabytes of fresh pages.
    """
    np = backend.np
    head = np.asarray(head, dtype=np.int64)
    hub = np.asarray(hub, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = head.size - 1
    count = hub.size
    lengths = np.diff(head)
    codes = np.empty(count, dtype=np.int64)
    np.subtract(hub[1:], hub[:-1], out=codes[1:])
    codes[1:] -= 1
    starts = head[:-1][lengths > 0]
    codes[starts] = hub[starts]
    hub_stream = _uvarint_encode_np(codes)

    # Hubs ascend within a row, so (row, hub) keys ascend globally and
    # one searchsorted finds every parent inside its own row's slice.
    span = int(hub.max()) + 1 if count else 1
    keys = np.repeat(np.arange(n, dtype=np.int64) * span, lengths)
    want = np.clip(parent, 0, span)
    want += keys
    keys += hub
    pos = np.searchsorted(keys, want)
    np.minimum(pos, count - 1, out=pos)  # a miss past the end stays a miss
    has = parent >= 0
    if count and not (~has | ((parent < span) & (keys[pos] == want))).all():
        raise ValueError(
            "label parent outside its node's label slice; cannot compact"
        )
    del keys, want
    parent_pos = np.where(has, pos, -1)
    codes = pos  # 1-based position inside the row, 0 for a root
    codes -= np.repeat(head[:-1], lengths)
    codes += 1
    codes[~has] = 0
    del pos, has
    parent_stream = _uvarint_encode_np(codes)
    del codes
    enc, dist_payload = _encode_dists_np(dist, parent_pos)
    lengths_stream = _uvarint_encode_np(lengths)
    return enc, count, lengths_stream, hub_stream, parent_stream, dist_payload


def _read_hl2_header(fh) -> Tuple[int, int]:
    enc, count = struct.unpack("<Bq", _read_exact(fh, 9))
    if enc not in _DIST_ENC_NAMES:
        raise _hl2_corrupt(f"unknown distance encoding {enc}")
    if not 0 <= count <= _HL2_MAX:
        raise _hl2_corrupt(f"entry count {count} out of range")
    return enc, count


def _read_hl2_flat_dists(fh, enc: int, count: int) -> array:
    """The ``i4`` / ``f8`` distance column (raw, no resolution)."""
    if enc == _DIST_I4:
        return _read_i32_array(fh, count)
    return _read_d_array(fh, count)


def _read_dd_head(fh, count: int):
    """The ``dd`` dictionary and its per-entry index stream."""
    (size,) = struct.unpack("<q", _read_exact(fh, 8))
    if not 0 <= size <= count:
        raise _hl2_corrupt(f"delta dictionary size {size} out of range")
    values = _read_d_array(fh, size)
    return values, _read_hl2_stream(fh, count, "delta index", bound=size)


def _decode_label_side(fh, n: int) -> Tuple:
    """One HL2 direction -> ``(head, hub, dist, parent, enc)`` columns.

    ``head``/``hub``/``parent`` come back as int32 stdlib arrays (the
    compact query domain); ``dist`` as int32 for ``i4`` sections and
    float64 for ``dd``/``f8`` — in all cases holding the exact values
    the flat columns held.  Both paths check that the streams agree
    with the counts, that hubs lie below ``n``, that every parent sits
    in its node's slice, that each root entry is its own node and that
    parents form no cycle — so a parent walk always ends at its node.
    """
    if backend.use_numpy():
        return _decode_label_side_np(fh, n)
    enc, count = _read_hl2_header(fh)
    lengths = _read_hl2_stream(fh, n, "lengths")
    hub_codes = _read_hl2_stream(fh, count, "hubs")
    parent_codes = _read_hl2_stream(fh, count, "parents")
    if sum(lengths) != count:
        raise _hl2_corrupt("lengths disagree with the entry count")
    heads = [0] * (n + 1)
    hubs = [0] * count
    parents = [-1] * count
    pabs = [-1] * count  # absolute parent index, for delta resolution
    pos = 0
    for u, ln in enumerate(lengths):
        base = pos
        prev = -1
        for k in range(base, base + ln):
            prev += hub_codes[k] + 1
            hubs[k] = prev
        pos = base + ln
        heads[u + 1] = pos
        for k in range(base, pos):
            code = parent_codes[k]
            if code:
                if code > ln:
                    raise _hl2_corrupt(
                        "parent position outside its node's label slice"
                    )
                pabs[k] = base + code - 1
                parents[k] = hubs[base + code - 1]
            elif hubs[k] != u:
                raise _hl2_corrupt("label root is not its own node")
    if hubs and max(hubs) >= n:
        raise _hl2_corrupt("hub id past the node count")
    order = _parent_order(pabs, "HLIDX2")  # raises on a parent cycle
    if enc == _DIST_DD:
        values, codes = _read_dd_head(fh, count)
        values = values.tolist()
        dists = [0.0] * count
        for k in order:
            p = pabs[k]
            dp = dists[p] if p >= 0 else 0.0
            dists[k] = dp + values[codes[k]]
        dist = array("d", dists)
    else:
        dist = _read_hl2_flat_dists(fh, enc, count)
    return array("i", heads), array("i", hubs), dist, array("i", parents), enc


def _parent_order(pabs: List[int], section: str) -> List[int]:
    """Every entry, parents before children; raises
    ``BundleCorrupted(section, ...)`` on a parent cycle."""
    count = len(pabs)
    order: List[int] = []
    done = bytearray(count)
    for k in range(count):
        if done[k]:
            continue
        chain = [k]
        x = pabs[k]
        while x >= 0 and not done[x]:
            chain.append(x)
            x = pabs[x]
            if len(chain) > count:
                raise BundleCorrupted(section, "parent positions form a cycle")
        for j in reversed(chain):
            done[j] = 1
            order.append(j)
    return order


def _parent_levels_np(pabs) -> list:
    """Entry indexes level by level down the parent forest, roots first.

    Each round takes the pending entries whose parent is already done;
    a round that takes none leaves only entries on or below a cycle.
    """
    np = backend.np
    done = pabs < 0
    levels = [np.flatnonzero(done)]
    pending = np.flatnonzero(~done)
    while pending.size:
        ready = done[pabs[pending]]
        level = pending[ready]
        if not level.size:
            raise _hl2_corrupt("parent positions form a cycle")
        done[level] = True
        levels.append(level)
        pending = pending[~ready]
    return levels


def _i32_array(col) -> array:
    """An ``array('i')`` holding ``col``'s values, filled in place."""
    out = array("i", [0]) * len(col)
    backend.np.frombuffer(out, dtype=backend.np.int32)[:] = col
    return out


def _decode_label_side_np(fh, n: int) -> Tuple:
    """:func:`_decode_label_side` as whole-column passes: the same
    checks, the same column types, bit-identical values.  Index
    arithmetic runs in place and each column becomes its int32 array as
    soon as it is final, to keep the count-sized temporaries few."""
    np = backend.np
    enc, count = _read_hl2_header(fh)
    lengths = _read_hl2_stream(fh, n, "lengths")
    hub = _read_hl2_stream(fh, count, "hubs")
    parent_codes = _read_hl2_stream(fh, count, "parents")
    if int(lengths.sum()) != count:
        raise _hl2_corrupt("lengths disagree with the entry count")
    head = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=head[1:])
    # hub[k] = run[k] - run[s - 1] - 1 for row start s, where run is the
    # running sum of (code + 1) and run[-1] = 0: first code absolute,
    # then delta - 1.
    hub += 1
    np.cumsum(hub, out=hub)
    nonempty = lengths > 0
    starts = head[:-1][nonempty]
    base = hub[starts - 1] + 1
    base[:1] = 1  # the first non-empty row starts at entry 0
    hub -= np.repeat(base, lengths[nonempty])
    if count and int(hub.max()) >= n:
        raise _hl2_corrupt("hub id past the node count")
    if count and (
        np.maximum.reduceat(parent_codes, starts) > lengths[nonempty]
    ).any():
        raise _hl2_corrupt("parent position outside its node's label slice")
    roots = parent_codes == 0
    rows = np.searchsorted(head, np.flatnonzero(roots), side="right") - 1
    if (hub[roots] != rows).any():
        raise _hl2_corrupt("label root is not its own node")
    pabs = parent_codes  # absolute parent index, -1 for a root
    pabs += np.repeat(head[:-1], lengths)
    pabs -= 1
    pabs[roots] = -1
    parent = _i32_array(hub[pabs])
    np.frombuffer(parent, dtype=np.int32)[roots] = -1
    hub = _i32_array(hub)
    levels = _parent_levels_np(pabs)  # raises on a parent cycle
    if enc == _DIST_DD:
        values, codes = _read_dd_head(fh, count)
        deltas = np.frombuffer(values, dtype=np.float64)[codes]
        del codes
        dist = array("d", [0.0]) * count
        dists = np.frombuffer(dist, dtype=np.float64)
        dists[roots] = 0.0 + deltas[roots]  # the pure path's 0.0 + delta
        for level in levels[1:]:
            dists[level] = dists[pabs[level]] + deltas[level]
        del dists  # releases the buffer export on ``dist``
    else:
        dist = _read_hl2_flat_dists(fh, enc, count)
    return _i32_array(head), hub, dist, parent, enc


# ----------------------------------------------------------------------
# Worker-tier column transport (request lanes)
# ----------------------------------------------------------------------
# Transient wire format for repro.serve.pool: same uvarint / width
# discipline as HL2, but never written to disk — a dispatcher packs a
# planner sub-batch into one flat block, ships it through a
# shared-memory lane, and the worker reconstructs exact values.
# Pure-Python loops over plain ints keep the bytes identical under both
# backends.

#: Request kind codes in the REQCOL block (order is part of the format).
_REQ_DISTANCE, _REQ_ONE_TO_MANY, _REQ_TABLE = 0, 1, 2


def pack_requests(requests) -> Optional[bytes]:
    """A planner sub-batch -> one flat REQCOL block (or ``None``).

    Layout (little-endian)::

        u8  width          4 or 8 (HLIDX2's width discipline: int32
                           columns when every node id fits, else int64)
        <q  nreq
        kinds[nreq]        u8: 0 distance, 1 one_to_many, 2 table
        <q  nmeta; meta    uvarint stream, request order: one_to_many
                           contributes ``len(targets)``, table
                           contributes ``len(sources), len(targets)``
        <q  nids; ids      node-id column (width bytes each), request
                           order: distance ``s, t``; one_to_many
                           ``s, targets...``; table ``sources...,
                           targets...``

    Returns ``None`` when the batch contains anything but the three
    exact planner request types (e.g. a test-hook ``CrashRequest``) —
    those sub-batches keep the pickled pipe path, which preserves
    arbitrary request objects by construction.
    """
    kinds = bytearray()
    meta = bytearray()
    ids: List[int] = []
    for req in requests:
        t = type(req)
        if t is DistanceRequest:
            kinds.append(_REQ_DISTANCE)
            ids.append(req.source)
            ids.append(req.target)
        elif t is OneToManyRequest:
            kinds.append(_REQ_ONE_TO_MANY)
            _uvarint_append(meta, len(req.targets))
            ids.append(req.source)
            ids.extend(req.targets)
        elif t is TableRequest:
            kinds.append(_REQ_TABLE)
            _uvarint_append(meta, len(req.sources))
            _uvarint_append(meta, len(req.targets))
            ids.extend(req.sources)
            ids.extend(req.targets)
        else:
            return None
    width = 4
    for v in ids:
        if not 0 <= v <= 0x7FFFFFFF:
            width = 8
            break
    out = bytearray()
    out.append(width)
    out += struct.pack("<q", len(kinds))
    out += kinds
    out += struct.pack("<q", len(meta))
    out += meta
    out += struct.pack("<q", len(ids))
    out += array("i" if width == 4 else "q", ids).tobytes()
    return bytes(out)


def unpack_requests(blob) -> List[Request]:
    """REQCOL block -> typed planner requests, exact round-trip.

    The constructors re-coerce every id to a plain Python ``int``, so
    reconstructed requests group, hash, and execute exactly like the
    originals — :func:`pack_requests` then this is the identity on the
    three planner request types.
    """
    buf = memoryview(blob)
    width = buf[0]
    if width not in (4, 8):
        raise ValueError(f"bad REQCOL width {width}")
    pos = 1
    (nreq,) = struct.unpack_from("<q", buf, pos)
    pos += 8
    kinds = bytes(buf[pos : pos + nreq])
    pos += nreq
    (nmeta,) = struct.unpack_from("<q", buf, pos)
    pos += 8
    counts = _uvarint_decode(buf[pos : pos + nmeta])
    pos += nmeta
    (nids,) = struct.unpack_from("<q", buf, pos)
    pos += 8
    end = pos + nids * width
    if end > len(buf):
        raise ValueError("REQCOL id column truncated")
    ids = backend.ids_from_bytes(buf[pos:end], width)
    out: List[Request] = []
    mpos = 0
    ipos = 0
    for code in kinds:
        if code == _REQ_DISTANCE:
            out.append(DistanceRequest(ids[ipos], ids[ipos + 1]))
            ipos += 2
        elif code == _REQ_ONE_TO_MANY:
            k = counts[mpos]
            mpos += 1
            out.append(OneToManyRequest(ids[ipos], ids[ipos + 1 : ipos + 1 + k]))
            ipos += 1 + k
        elif code == _REQ_TABLE:
            ns, nt = counts[mpos], counts[mpos + 1]
            mpos += 2
            out.append(
                TableRequest(ids[ipos : ipos + ns], ids[ipos + ns : ipos + ns + nt])
            )
            ipos += ns + nt
        else:
            raise ValueError(f"unknown REQCOL request kind {code}")
    return out


def _save_hl2(index: HubLabelIndex, fh: BinaryIO) -> None:
    fh.write(_HL2_MAGIC)
    fh.write(struct.pack("<q", index.graph.n))
    for head, hub, dist, parent in (
        (index.fwd_head, index.fwd_hub, index.fwd_dist, index.fwd_parent),
        (index.bwd_head, index.bwd_hub, index.bwd_dist, index.bwd_parent),
    ):
        enc, count, lengths, hubs, parents, dist_payload = _encode_label_side(
            head, hub, dist, parent
        )
        fh.write(struct.pack("<Bq", enc, count))
        _write_blob(fh, lengths)
        _write_blob(fh, hubs)
        _write_blob(fh, parents)
        fh.write(dist_payload)
    middle = index._middle
    fh.write(struct.pack("<q", len(middle)))
    a_col = array("i")
    b_col = array("i")
    mid_col = array("i")
    for (a, b), mid in middle.items():
        a_col.append(a)
        b_col.append(b)
        mid_col.append(mid)
    _write_col(fh, a_col)
    _write_col(fh, b_col)
    _write_col(fh, mid_col)


def _load_hl2_body(fh, graph: Graph) -> HubLabelIndex:
    """Read everything after the ``HLIDX2`` magic and rebuild the index."""
    (n,) = struct.unpack("<q", _read_exact(fh, 8))
    if n != graph.n:
        raise ValueError(
            f"index was built for {n} nodes but the graph has {graph.n}"
        )
    fwd = _decode_label_side(fh, n)
    bwd = _decode_label_side(fh, n)
    (mcount,) = struct.unpack("<q", _read_exact(fh, 8))
    a_col = _read_i32_array(fh, mcount).tolist()
    b_col = _read_i32_array(fh, mcount).tolist()
    mid_col = _read_i32_array(fh, mcount).tolist()

    index = HubLabelIndex.__new__(HubLabelIndex)
    index.graph = graph
    index.fwd_head, index.fwd_hub, index.fwd_dist, index.fwd_parent = fwd[:4]
    index.bwd_head, index.bwd_hub, index.bwd_dist, index.bwd_parent = bwd[:4]
    index._middle = dict(zip(zip(a_col, b_col), mid_col))
    index.domain = "compact"
    index.dist_encoding = (_DIST_ENC_NAMES[fwd[4]], _DIST_ENC_NAMES[bwd[4]])
    index._init_runtime_state()
    return index


# ----------------------------------------------------------------------
# Graph CSR serialization
# ----------------------------------------------------------------------
def save_graph(graph: Graph, sink: Union[str, BinaryIO]) -> None:
    """Write ``graph``'s CSR columns (both directions) to ``sink``.

    Every column is a single contiguous ``array.tofile`` block — no
    per-edge Python objects touch the disk path.
    """
    own = isinstance(sink, str)
    fh: BinaryIO = open(sink, "wb") if own else sink  # type: ignore[assignment]
    try:
        fh.write(_GRAPH_MAGIC)
        fh.write(struct.pack("<qq", graph.n, graph.m))
        _write_col(fh, array("d", graph.xs))
        _write_col(fh, array("d", graph.ys))
        _write_col(fh, graph.out_head)
        _write_col(fh, graph.out_dst)
        _write_col(fh, graph.out_w)
        _write_col(fh, graph.in_head)
        _write_col(fh, graph.in_src)
        _write_col(fh, graph.in_w)
    finally:
        if own:
            fh.close()


def load_graph(source: Source, *, mmap: bool = False) -> Graph:
    """Reconstruct a :class:`Graph` from :func:`save_graph` output.

    Both CSR triples come straight off the file, so the load path never
    re-derives the reverse adjacency (and never allocates per-edge
    tuples): it is ``fromfile`` into six flat arrays plus the coordinate
    columns.  From a buffer source under the numpy backend the six CSR
    columns are ``frombuffer`` views over the buffer itself — read-only
    and zero-copy.
    """
    fh, own = _open_source(source, mmap)
    try:
        magic = fh.read(len(_GRAPH_MAGIC))
        if magic != _GRAPH_MAGIC:
            raise ValueError("not a CSR graph file (bad magic)")
        try:
            n, m = struct.unpack("<qq", _read_exact(fh, 16))
            # Coordinates stay plain Python lists (Graph.coord hands them
            # out directly); the six CSR columns come up in the active
            # backend's container with zero re-derivation.
            xs = _read_d_array(fh, n).tolist()
            ys = _read_d_array(fh, n).tolist()
            out_head = _read_i64_col(fh, n + 1)
            out_dst = _read_i64_col(fh, m)
            out_w = _read_f64_col(fh, m)
            in_head = _read_i64_col(fh, n + 1)
            in_src = _read_i64_col(fh, m)
            in_w = _read_f64_col(fh, m)
        except (struct.error, EOFError) as exc:
            raise BundleCorrupted("GCSR1", str(exc)) from exc
    finally:
        if own:
            fh.close()
    return Graph.from_csr(
        xs, ys, out_head, out_dst, out_w, in_head, in_src, in_w
    )


# ----------------------------------------------------------------------
# Bundles: one file holding the graph and its index
# ----------------------------------------------------------------------
def save_bundle(
    index: Union[AHIndex, HubLabelIndex],
    sink: Union[str, BinaryIO],
    *,
    compact: bool = True,
    crc: bool = True,
) -> None:
    """Write ``index``'s graph followed by the index itself.

    Works for AH and hub-label indexes alike (the index section's magic
    records which it was).  The result is self-contained:
    :func:`load_bundle` needs no separately-loaded network, which is the
    deployment story the paper's §7 memory-footprint discussion asks
    for.  ``compact`` selects HL2 vs HL1 for hub-label sections (AH
    sections are unaffected).

    ``crc=True`` (the default) appends the ``BCRC1`` trailer — one
    (offset, length, crc32) entry per section — so :func:`load_bundle`
    can verify integrity before decoding; ``crc=False`` reproduces the
    legacy trailer-less format.
    """
    own = isinstance(sink, str)
    fh: BinaryIO = open(sink, "wb") if own else sink  # type: ignore[assignment]
    try:
        w = _CrcWriter(fh)
        entries = []
        offset = 0
        save_graph(index.graph, w)  # type: ignore[arg-type]
        length, section_crc = w.section_done()
        entries.append((offset, length, section_crc))
        offset += length
        if isinstance(index, HubLabelIndex):
            save_hl_index(index, w, compact=compact)  # type: ignore[arg-type]
        else:
            save_index(index, w)  # type: ignore[arg-type]
        length, section_crc = w.section_done()
        entries.append((offset, length, section_crc))
        if crc:
            for entry in entries:
                fh.write(_TRAILER_ENTRY.pack(*entry))
            fh.write(struct.pack("<q", len(entries)))
            fh.write(_TRAILER_MAGIC)
    finally:
        if own:
            fh.close()


def _parse_trailer_tail(tail: bytes, total: int):
    """``(count, trailer_start)`` from a bundle's last bytes, or None.

    ``tail`` is the final ``_TRAILER_TAIL`` bytes of the image and
    ``total`` the number of bundle bytes; a present-but-implausible
    trailer raises (it means the trailer itself took the damage).
    """
    if len(tail) < _TRAILER_TAIL or tail[8:] != _TRAILER_MAGIC:
        return None
    (count,) = struct.unpack("<q", tail[:8])
    tstart = total - _TRAILER_TAIL - _TRAILER_ENTRY.size * count
    if count <= 0 or tstart < 0:
        raise BundleCorrupted(
            "trailer", f"implausible section count {count}"
        )
    return count, tstart


def _check_entry(offset: int, length: int, limit: int) -> None:
    if offset < 0 or length < 0 or offset + length > limit:
        raise BundleCorrupted(
            "trailer",
            f"section entry ({offset}, {length}) outside the "
            f"{limit}-byte data region",
        )


def _verify_crc_trailer(fh) -> str:
    """Verify a bundle's ``BCRC1`` trailer before anything is decoded.

    Returns ``"verified"``, ``"legacy"`` (no trailer — caller warns) or
    ``"skipped"`` (non-seekable stream, nothing to be done); raises
    :class:`BundleCorrupted` naming the damaged section on mismatch.
    The read position is left where it was found.
    """
    if isinstance(fh, _BufferReader):
        mv, base = fh._mv, fh._pos
        total = len(mv) - base
        if total < _TRAILER_TAIL:
            return "legacy"
        parsed = _parse_trailer_tail(bytes(mv[len(mv) - _TRAILER_TAIL :]), total)
        if parsed is None:
            return "legacy"
        count, tstart = parsed
        for i in range(count):
            offset, length, crc = _TRAILER_ENTRY.unpack_from(
                mv, base + tstart + _TRAILER_ENTRY.size * i
            )
            _check_entry(offset, length, tstart)
            actual = zlib.crc32(mv[base + offset : base + offset + length])
            if actual != crc:
                name = _section_name(
                    bytes(mv[base + offset : base + offset + 8]), offset
                )
                raise BundleCorrupted(
                    name,
                    f"CRC mismatch (stored 0x{crc:08x}, "
                    f"computed 0x{actual:08x})",
                )
        return "verified"
    # Real file handle: verify by seeking, then restore the position.
    try:
        pos = fh.tell()
        fh.seek(0, 2)
        end = fh.tell()
    except (OSError, AttributeError, io.UnsupportedOperation):
        return "skipped"
    try:
        if end - pos < _TRAILER_TAIL:
            return "legacy"
        fh.seek(end - _TRAILER_TAIL)
        parsed = _parse_trailer_tail(fh.read(_TRAILER_TAIL), end - pos)
        if parsed is None:
            return "legacy"
        count, tstart = parsed
        fh.seek(pos + tstart)
        entries = [
            _TRAILER_ENTRY.unpack(fh.read(_TRAILER_ENTRY.size))
            for _ in range(count)
        ]
        for offset, length, crc in entries:
            _check_entry(offset, length, tstart)
            fh.seek(pos + offset)
            actual = 0
            remaining = length
            while remaining:
                chunk = fh.read(min(remaining, 1 << 20))
                if not chunk:
                    raise BundleCorrupted(
                        "trailer", "file shorter than its trailer claims"
                    )
                actual = zlib.crc32(chunk, actual)
                remaining -= len(chunk)
            if actual != crc:
                fh.seek(pos + offset)
                name = _section_name(fh.read(8), offset)
                raise BundleCorrupted(
                    name,
                    f"CRC mismatch (stored 0x{crc:08x}, "
                    f"computed 0x{actual:08x})",
                )
        return "verified"
    finally:
        fh.seek(pos)


def load_bundle(
    source: Source, *, mmap: bool = False, verify: bool = True
) -> Tuple[Graph, Union[AHIndex, HubLabelIndex]]:
    """Load a ``(graph, index)`` pair written by :func:`save_bundle`.

    The index section's magic selects the loader, so callers get back
    whichever engine the bundle was saved with (``AHIDX1`` and
    ``HLIDX1`` magics are deliberately the same length).

    ``source`` may also be an in-memory buffer (``bytes`` /
    ``bytearray`` / ``memoryview``) or, with ``mmap=True``, a path to
    memory-map — the worker-tier boot paths: a worker process hands
    this either the bundle blob it received over a pipe or the shared
    bundle path, and gets a replica whose big read-only columns view
    that buffer in place (zero-copy under numpy; label columns
    zero-copy on both backends).

    ``verify=True`` (the default) checks the ``BCRC1`` trailer's
    section CRCs before decoding: a torn or bit-flipped bundle raises
    :class:`BundleCorrupted` naming the failing section instead of
    mis-decoding; a legacy trailer-less bundle loads with a one-time
    :class:`RuntimeWarning`.  Decode-time ``struct.error``/``EOFError``
    (a damaged legacy file) are wrapped into :class:`BundleCorrupted`
    as well.
    """
    fh, own = _open_source(source, mmap)
    try:
        if verify and _verify_crc_trailer(fh) == "legacy":
            _warn_crcless()
        section = "GCSR1"
        try:
            graph = load_graph(fh)
            section = "index"
            magic = fh.read(len(_MAGIC))
            if magic == _MAGIC:
                section = "AHIDX1"
                index = _load_index_body(fh, graph)
            elif magic == _HL_MAGIC:
                section = "HLIDX1"
                index = _load_hl_body(fh, graph)
            elif magic == _HL2_MAGIC:
                section = "HLIDX2"
                index = _load_hl2_body(fh, graph)
            else:
                raise ValueError(
                    "bundle's index section has an unknown magic"
                )
        except (struct.error, EOFError) as exc:
            raise BundleCorrupted(section, str(exc)) from exc
    finally:
        if own:
            fh.close()
    return graph, index


# ----------------------------------------------------------------------
# Inspection: structural footprint report + CLI
# ----------------------------------------------------------------------
def _skip_adjacency_bytes(data: bytes, pos: int, n: int) -> int:
    """Bytes one serialized AH adjacency occupies, starting at ``pos``."""
    (total,) = struct.unpack_from("<q", data, pos + 4 * n)
    return 4 * n + 8 + total * (4 + 8 + 4)


def inspect_bundle(source: Source) -> List[dict]:
    """Parse a bundle's (or bare index/graph file's) section structure.

    Purely structural — nothing is decoded into arrays or objects.
    Returns one dict per section with its magic, byte offset/size and a
    footprint breakdown: per-stream sizes and the distance encoding for
    ``HLIDX2``, label-column bytes for ``HLIDX1``, node/edge counts for
    graphs.  ``label_bytes`` spans everything between a hub-label
    section's header and its middles block, so HL1-vs-HL2 ratios
    compare like with like.  Backs ``python -m repro.serialize
    --inspect`` and the footprint benchmarks.
    """
    fh, own = _open_source(source, False)
    try:
        data = bytes(fh.read(-1))
    finally:
        if own:
            fh.close()
    sections: List[dict] = []
    # A BCRC1 trailer (magic last) bounds the section walk; report it as
    # its own pseudo-section so offsets/sizes still tile the file.
    limit = len(data)
    trailer: Optional[dict] = None
    parsed = (
        _parse_trailer_tail(data[-_TRAILER_TAIL:], len(data))
        if len(data) >= _TRAILER_TAIL
        else None
    )
    if parsed is not None:
        count, tstart = parsed
        entries = [
            _TRAILER_ENTRY.unpack_from(data, tstart + _TRAILER_ENTRY.size * i)
            for i in range(count)
        ]
        limit = tstart
        trailer = {
            "magic": "BCRC1",
            "offset": tstart,
            "bytes": len(data) - tstart,
            "detail": {
                "sections": count,
                "crc32": [
                    {"offset": off, "bytes": ln, "crc32": f"0x{crc:08x}"}
                    for off, ln, crc in entries
                ],
            },
        }
    pos = 0
    while pos < limit:
        start = pos
        if data.startswith(_GRAPH_MAGIC, pos):
            pos += len(_GRAPH_MAGIC)
            n, m = struct.unpack_from("<qq", data, pos)
            pos += 16 + 16 * n + 16 * (n + 1) + 32 * m
            detail = {"n": n, "m": m}
            magic = _GRAPH_MAGIC
        elif data.startswith(_MAGIC, pos):
            pos += len(_MAGIC)
            n = struct.unpack_from("<i", data, pos)[0]
            pos += 36 + 8 * n  # header + levels + rank (int32 each)
            pos += _skip_adjacency_bytes(data, pos, n)
            pos += _skip_adjacency_bytes(data, pos, n)
            detail = {"n": n}
            magic = _MAGIC
        elif data.startswith(_HL_MAGIC, pos):
            pos += len(_HL_MAGIC)
            (n,) = struct.unpack_from("<q", data, pos)
            pos += 8
            label_start = pos
            entries = 0
            per_side = []
            for _ in range(2):
                (total,) = struct.unpack_from("<q", data, pos + 8 * (n + 1))
                entries += total
                per_side.append({"entries": total, "bytes": 8 * (n + 1) + 8 + 24 * total})
                pos += 8 * (n + 1) + 8 + 24 * total
            label_bytes = pos - label_start
            (mcount,) = struct.unpack_from("<q", data, pos)
            pos += 8 + 24 * mcount
            detail = {
                "n": n,
                "entries": entries,
                "label_bytes": label_bytes,
                "bytes_per_entry": round(label_bytes / entries, 3) if entries else 0.0,
                "middles": mcount,
                "encoding": {"hub": "i8", "dist": "f8", "parent": "i8"},
                "sides": per_side,
            }
            magic = _HL_MAGIC
        elif data.startswith(_HL2_MAGIC, pos):
            pos += len(_HL2_MAGIC)
            (n,) = struct.unpack_from("<q", data, pos)
            pos += 8
            label_start = pos
            entries = 0
            encs = []
            per_side = []
            for _ in range(2):
                side_start = pos
                enc, count = struct.unpack_from("<Bq", data, pos)
                pos += 9
                entries += count
                streams = {}
                for name in ("lengths", "hubs", "parents"):
                    (nb,) = struct.unpack_from("<q", data, pos)
                    streams[name] = nb
                    pos += 8 + nb
                if enc == _DIST_I4:
                    streams["dists"] = 4 * count
                    pos += 4 * count
                elif enc == _DIST_F8:
                    streams["dists"] = 8 * count
                    pos += 8 * count
                else:
                    (dsize,) = struct.unpack_from("<q", data, pos)
                    (inb,) = struct.unpack_from("<q", data, pos + 8 + 8 * dsize)
                    streams["dists"] = 8 + 8 * dsize + 8 + inb
                    streams["delta_dict_values"] = dsize
                    pos += streams["dists"]
                encs.append(_DIST_ENC_NAMES[enc])
                per_side.append(
                    {"entries": count, "bytes": pos - side_start, "streams": streams}
                )
            label_bytes = pos - label_start
            (mcount,) = struct.unpack_from("<q", data, pos)
            pos += 8 + 12 * mcount
            detail = {
                "n": n,
                "entries": entries,
                "label_bytes": label_bytes,
                "bytes_per_entry": round(label_bytes / entries, 3) if entries else 0.0,
                "middles": mcount,
                "encoding": {"hub": "uvarint-delta", "dist": "/".join(encs), "parent": "uvarint-pos"},
                "dist_encoding": encs,
                "sides": per_side,
            }
            magic = _HL2_MAGIC
        else:
            raise ValueError(f"unknown section magic at byte {pos}")
        if pos > limit:
            raise EOFError("truncated section: file ends inside a section")
        sections.append(
            {
                "magic": magic.decode().strip(),
                "offset": start,
                "bytes": pos - start,
                "detail": detail,
            }
        )
    if trailer is not None:
        sections.append(trailer)
    return sections


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.serialize --inspect <bundle>``: footprint report."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serialize",
        description="Inspect the section structure of a serialized "
        "bundle / index / graph file.",
    )
    parser.add_argument(
        "--inspect",
        metavar="PATH",
        required=True,
        help="bundle (or bare index/graph) file to report on",
    )
    args = parser.parse_args(argv)
    try:
        sections = inspect_bundle(args.inspect)
    except OSError as exc:
        print(f"error: cannot read {args.inspect}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (struct.error, ValueError, EOFError) as exc:
        print(
            f"error: {args.inspect} is not a valid bundle: {exc}", file=sys.stderr
        )
        return 2
    if not sections:
        print(f"error: {args.inspect} is empty (no sections)", file=sys.stderr)
        return 2
    total = 0
    for sec in sections:
        total += sec["bytes"]
        detail = sec["detail"]
        print(f"{sec['magic']:<8} offset={sec['offset']:<12} bytes={sec['bytes']}")
        if "m" in detail:
            print(f"         n={detail['n']} m={detail['m']}")
        elif "entries" in detail:
            enc = detail["encoding"]
            print(
                f"         n={detail['n']} entries={detail['entries']} "
                f"middles={detail['middles']}"
            )
            print(
                f"         label_bytes={detail['label_bytes']} "
                f"({detail['bytes_per_entry']} B/entry)  "
                f"hub={enc['hub']} dist={enc['dist']} parent={enc['parent']}"
            )
            for tag, side in zip(("fwd", "bwd"), detail["sides"]):
                streams = side.get("streams")
                if streams:
                    parts = " ".join(
                        f"{k}={v}" for k, v in streams.items()
                        if k != "delta_dict_values"
                    )
                    print(f"           {tag}: {side['bytes']} B  {parts}")
        elif "sections" in detail:
            crcs = " ".join(e["crc32"] for e in detail["crc32"])
            print(f"         covers {detail['sections']} section(s)  {crcs}")
        else:
            print(f"         n={detail['n']}")
    print(f"total    {total} bytes, {len(sections)} section(s)")
    return 0
