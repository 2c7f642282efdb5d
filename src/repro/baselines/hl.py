"""Hub labeling (2-hop labels) built from the CH hierarchy.

The fastest query scheme in the Wu et al. experimental study (VLDB 2012)
and the one the paper's sub-millisecond ambition ultimately points at:
precompute for every node ``u`` a *forward label* — pairs ``(h, d(u,h))``
over a small set of hub nodes — and a *backward label* with distances
*into* ``u``; then ``d(s, t)`` is the minimum of
``d(s, h) + d(h, t)`` over hubs ``h`` common to the forward label of
``s`` and the backward label of ``t``.  No graph traversal at query
time: two sorted arrays, one merge-join.

Construction reuses the CH machinery of :mod:`repro.baselines.ch`
(reference [11]) in the style of Abraham et al.'s CH-based hub labels
and Akiba et al.'s pruned landmark labeling (SIGMOD 2013):

* Contract the graph once; ``rank`` orders nodes by importance.
* Process nodes in **descending** rank order.  For node ``u``, the
  forward label candidates are exactly the nodes settled by a CH upward
  search from ``u`` (the bidirectional CH query's forward half), whose
  correctness guarantees that every shortest path ``u -> t`` has a
  meeting hub present in both ``u``'s upward search space and ``t``'s
  downward one.
* **Pruning:** when the upward search settles ``h`` at distance ``d``,
  the already-built labels (all hubs outrank ``u``) answer ``d(u, h)``;
  if that label query is ``<= d`` the entry is redundant — some higher
  hub already covers every pair this entry could serve — so ``h`` is
  neither labelled nor expanded.  This is what keeps labels small.

Storage is flat CSR-style parallel arrays, matching the PR-1 graph
substrate idiom: ``label_head[u] : label_head[u+1]`` delimits node
``u``'s slice of ``label_hub`` / ``label_dist`` / ``label_parent``, with
hubs sorted ascending per node so the distance query is a pure two-index
merge-join.  ``label_parent`` stores each hub's predecessor on the
upward path from the node (``-1`` for the node itself), which together
with the contraction's shortcut middles reconstructs full original-graph
paths.

The batched surface (:meth:`HubLabelIndex.one_to_many`,
:meth:`HubLabelIndex.distance_table`) is where the interpreter overhead
of per-entry scans actually bites — a 100x100 table touches tens of
thousands of label entries — so it dispatches on :mod:`repro.backend`:

* **native** (the top tier, when the optional :mod:`repro.native`
  C extension is built): all three hot kernels — the two-pointer
  merge-join ``distance``, the dense-gather ``one_to_many`` and the
  co-occurrence scatter-min ``distance_table`` — run as single C calls
  directly over the label columns through the buffer protocol, flat
  and compact domains alike (the C loops read int32 and int64/float64
  columns through the same accessors, so compact bundles never widen).
* **numpy** (the default when importable): ``one_to_many`` scatters the
  source label into a dense hub-indexed distance vector (absent hubs
  read ``inf`` for free — no searchsorted, no mask), gathers it through
  the concatenation of the targets' backward columns, and collapses the
  per-target runs with ``minimum.reduceat``; ``distance_table``
  materialises exactly the hub *co-occurrence* pairs (the same pairs
  the pure scan iterates) via a bucketed merge-join and scatter-mins
  them into the table with ``minimum.at`` — no Python in either loop.
  A broadcast + ``reduceat`` formulation was benchmarked too and lost:
  label/bucket matrices here are ~3% dense, so candidate expansion
  proportional to co-occurrences beats dense row sweeps ~3x.
* **pure-python**: PR 2's label-scan paths (source-label dict for
  batches, inverted hub buckets for tables), kept verbatim as the
  tested fallback and as the A/B baseline the benchmarks record.

The per-query :meth:`HubLabelIndex.distance` stays a two-pointer
merge-join over the stdlib-array columns on both backends — at ~2 µs a
query there is nothing for vectorisation to amortise, and numpy scalar
indexing would only add boxing overhead.  The label columns therefore
remain stdlib ``array``\\ s; the kernels vectorise over cached
*zero-copy* numpy views of them (:func:`repro.backend.np_view`).

Two **column domains** share every query path.  A freshly built index
holds *flat* columns (int64 hubs/parents, float64 dists); an index
loaded from a compact ``HL2`` bundle section
(:mod:`repro.core.serialize`) holds *compact* ones — int32 hubs,
parents and heads, int32 dists when the exactness guard proved the
values integral.  The kernels are domain-generic: scalar paths coerce
results through ``float()`` (int32 -> float64 casts are exact), the
numpy table kernel widens the source distances to float64 before the
join (so int32 + int32 can never wrap), and :meth:`_np_views` maps each
column's own width.  Answers are bit-identical across domains *and*
backends — the compact domain halves cache-line traffic in the
gather-bound table kernel without changing a single bit of output.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .. import backend
from .. import native as _native
from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.workspace import acquire, release
from .base import BatchCapabilities, QueryEngine
from .ch import ContractionResult, contract_graph, unpack_shortcuts

__all__ = ["HubLabelIndex"]

INF = float("inf")

#: Upper bound on hub co-occurrence pairs materialised at once by the
#: numpy distance_table kernel; larger requests are chunked over
#: sources (the scatter-min accumulates across chunks, so chunking is
#: invisible in results).  4M pairs is ~100 MB of transient scratch.
_TABLE_PAIR_BUDGET = 4_000_000

#: Distinct target tuples whose hub->targets inversion is memoized per
#: index (ROADMAP "batched-table headroom": serving workloads reuse
#: target sets — dispatch keeps asking about the same open orders).
#: Each entry is O(total backward-label entries of its targets), so the
#: bound keeps a long-lived server from accumulating dead target sets.
_TARGET_INVERSION_CACHE_MAX = 8


def _pruned_upward_labels(
    u: int,
    adjacency: List[List[Tuple[int, float, Optional[int]]]],
    opposite: List[Optional[List[Tuple[int, float, int]]]],
    ws,
) -> List[Tuple[int, float, int]]:
    """One pruned CH upward search; returns ``u``'s label, hub-sorted.

    ``adjacency`` is the upward graph of the search direction (``up_out``
    for forward labels, ``up_in`` for backward); ``opposite`` holds the
    *finished* labels of the opposite direction, complete for every node
    of higher rank — which is all any settled hub can be, since upward
    edges only ascend ranks.

    A settled hub is pruned when the label query over ``u``'s
    already-accepted entries and the hub's opposite label matches or
    beats its settled distance; pruned hubs are not expanded, so whole
    redundant subtrees disappear.  A kept hub's search-tree parent was
    necessarily expanded, hence kept, so parent chains stay inside the
    label — that is what makes ``label_parent`` walkable.
    """
    c = ws.begin()
    dist = ws.dist
    visit = ws.visit
    parent = ws.parent
    dist[u] = 0.0
    visit[u] = c
    parent[u] = -1
    accepted: Dict[int, float] = {}
    entries: List[Tuple[int, float, int]] = []
    heap: List[Tuple[float, int]] = [(0.0, u)]
    while heap:
        d, x = heappop(heap)
        if d > dist[x]:
            continue  # stale entry
        if x != u:
            # Label query d(u, x) over accepted-so-far x opposite label.
            best = INF
            for hub, hd, _ in opposite[x]:
                ad = accepted.get(hub)
                if ad is not None and ad + hd < best:
                    best = ad + hd
            if best <= d:
                continue  # covered by a higher hub: prune the subtree
        accepted[x] = d
        entries.append((x, d, parent[x]))
        for v, w, _ in adjacency[x]:
            nd = d + w
            if visit[v] != c:
                visit[v] = c
                dist[v] = nd
                parent[v] = x
                heappush(heap, (nd, v))
            elif nd < dist[v]:
                dist[v] = nd
                parent[v] = x
                heappush(heap, (nd, v))
    entries.sort()
    return entries


def _flatten(
    labels: Sequence[List[Tuple[int, float, int]]],
) -> Tuple[array, array, array, array]:
    """Pack per-node entry lists into the flat CSR-style columns."""
    head = array("q", bytes(8 * (len(labels) + 1)))
    hub = array("q")
    dist = array("d")
    par = array("q")
    for u, entries in enumerate(labels):
        for h, d, p in entries:
            hub.append(h)
            dist.append(d)
            par.append(p)
        head[u + 1] = len(hub)
    return head, hub, dist, par


class HubLabelIndex(QueryEngine):
    """2-hop label distance oracle with CH-shortcut path reconstruction.

    Parameters
    ----------
    order, hop_limit, settle_limit:
        Passed through to :func:`repro.baselines.ch.contract_graph`
        (``order=None`` selects the classic lazy edge-difference order).
    contraction:
        An existing :class:`ContractionResult` to label over, skipping
        the contraction phase (e.g. share one hierarchy between a
        :class:`~repro.baselines.ch.CHEngine` and its labels).
    """

    name = "HL"

    def __init__(
        self,
        graph: Graph,
        order: Optional[Sequence[int]] = None,
        hop_limit: int = 8,
        settle_limit: int = 64,
        contraction: Optional[ContractionResult] = None,
    ) -> None:
        super().__init__(graph)
        res = contraction if contraction is not None else contract_graph(
            graph, order=order, hop_limit=hop_limit, settle_limit=settle_limit
        )
        self._middle: Dict[Tuple[int, int], int] = res.middle
        n = graph.n
        # Descending rank: every hub a search can settle is already done.
        by_rank = [0] * n
        for node, r in enumerate(res.rank):
            by_rank[r] = node
        fwd: List[Optional[List[Tuple[int, float, int]]]] = [None] * n
        bwd: List[Optional[List[Tuple[int, float, int]]]] = [None] * n
        ws = acquire(graph)
        try:
            for r in range(n - 1, -1, -1):
                u = by_rank[r]
                fwd[u] = _pruned_upward_labels(u, res.up_out, bwd, ws)
                bwd[u] = _pruned_upward_labels(u, res.up_in, fwd, ws)
        finally:
            release(graph, ws)
        self.fwd_head, self.fwd_hub, self.fwd_dist, self.fwd_parent = _flatten(fwd)
        self.bwd_head, self.bwd_hub, self.bwd_dist, self.bwd_parent = _flatten(bwd)
        self._init_runtime_state()

    def _init_runtime_state(self) -> None:
        """Per-instance caches rebuilt on every boot path.

        Called by ``__init__`` and by :func:`repro.core.serialize.
        load_hl_index` (which bypasses ``__init__`` via ``__new__``), so
        a bundle-loaded replica carries the same runtime state as a
        freshly built index.
        """
        if not hasattr(self, "domain"):
            #: "flat" (int64/float64 columns) or "compact" (int32 HL2
            #: columns) — set by the HL2 loader before this runs.
            self.domain = "flat"
        if not hasattr(self, "dist_encoding"):
            #: Per-direction on-disk distance encoding this index came
            #: from ("i4" / "dd" / "f8"); flat columns are always f8.
            self.dist_encoding = ("f8", "f8")
        self._npv = None  # cached zero-copy numpy views, built on first use
        # Target-side inversion memo: (backend flavour, target tuple) ->
        # prebuilt inversion structure.  Labels are immutable, so entries
        # never go stale; a small LRU bound caps the memory.
        self._tinv: "OrderedDict" = OrderedDict()
        self._tinv_lock = threading.Lock()
        self._tinv_hits = 0
        self._tinv_misses = 0
        self._tinv_max = _TARGET_INVERSION_CACHE_MAX

    def _np_views(self):
        """Zero-copy numpy views over the six query-time label columns.

        Cached per index (labels are immutable once built); shared by
        both batched kernels.  Only called when the numpy backend is
        active, so :mod:`repro.backend` guarantees numpy is importable.
        Width-generic (:func:`repro.backend.np_view`): flat columns view
        as int64/float64, compact HL2 columns as int32 — the kernels'
        gathers then move half the cache-line traffic per entry.
        """
        views = getattr(self, "_npv", None)
        if views is None:
            view = backend.np_view
            views = (
                view(self.fwd_head),
                view(self.fwd_hub),
                view(self.fwd_dist),
                view(self.bwd_head),
                view(self.bwd_hub),
                view(self.bwd_dist),
            )
            self._npv = views
        return views

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Label entries (both directions) plus shortcut-middle entries."""
        return len(self.fwd_hub) + len(self.bwd_hub) + len(self._middle)

    @property
    def label_count(self) -> int:
        """Total label entries across both directions."""
        return len(self.fwd_hub) + len(self.bwd_hub)

    def average_label_size(self) -> float:
        """Mean entries per node per direction (the classic HL metric)."""
        return self.label_count / (2.0 * max(1, self.graph.n))

    def stats(self) -> dict:
        """Footprint observability: bytes/entry and per-column sizes.

        Reports the *in-memory* query-time columns (flat vs compact
        domain, per-column byte sizes, bytes per label entry) plus the
        on-disk distance encoding the index came from.  The serialized
        footprint of a bundle is the companion view —
        ``python -m repro.serialize --inspect <bundle>``.
        """
        columns = {}
        label_bytes = 0
        for name in (
            "fwd_head", "fwd_hub", "fwd_dist", "fwd_parent",
            "bwd_head", "bwd_hub", "bwd_dist", "bwd_parent",
        ):
            col = getattr(self, name)
            itemsize = col.itemsize
            nbytes = len(col) * itemsize
            columns[name] = {"len": len(col), "itemsize": itemsize, "bytes": nbytes}
            label_bytes += nbytes
        entries = self.label_count
        return {
            "domain": self.domain,
            "dist_encoding": tuple(self.dist_encoding),
            "n": self.graph.n,
            "entries": entries,
            "label_bytes": label_bytes,
            "bytes_per_entry": round(label_bytes / entries, 3) if entries else 0.0,
            "avg_label_size": round(self.average_label_size(), 3),
            "middles": len(self._middle),
            "columns": columns,
        }

    # ------------------------------------------------------------------
    # Planner capabilities + target-inversion memo
    # ------------------------------------------------------------------
    def batch_capabilities(self) -> BatchCapabilities:
        """Full grouping unlocked: the label join *is* a batch primitive.

        Every batched path (dict scan, bucket scan, dense gather,
        co-occurrence join) minimises over exactly the hub co-occurrence
        pairs the per-query merge-join visits, summing the same
        ``fwd_dist + bwd_dist`` operands — so coalescing point queries
        into ``one_to_many`` and same-target rows into
        ``distance_table`` is bit-exact, not just value-exact
        (``tests/test_backend_parity.py`` pins the kernel side).
        """
        if backend.use_native():
            o2m, table = "hl-native-gather", "hl-native-scatter-min"
        elif backend.use_numpy():
            o2m, table = "hl-dense-gather", "hl-cooccurrence-join"
        else:
            o2m, table = "hl-label-scan", "hl-bucket-scan"
        return BatchCapabilities(
            one_to_many=o2m,
            distance_table=table,
            native_batching=True,
            exact_point_coalescing=True,
        )

    def _tinv_lookup(self, key):
        """Memoized inversion for ``key``, refreshed as most-recent."""
        with self._tinv_lock:
            entry = self._tinv.get(key)
            if entry is not None:
                self._tinv.move_to_end(key)
                self._tinv_hits += 1
                return entry
            self._tinv_misses += 1
        return None

    def _tinv_store(self, key, entry):
        """Insert an inversion, evicting least-recently-used past the bound.

        Concurrent builders may race to store the same key; both build
        identical structures (labels are immutable), so last-write-wins
        is harmless.
        """
        with self._tinv_lock:
            self._tinv[key] = entry
            while len(self._tinv) > self._tinv_max:
                self._tinv.popitem(last=False)
        return entry

    def clear_target_inversions(self) -> None:
        """Drop the memoized inversions and reset the counters.

        Benchmarks that want to time the *cold* table kernel (memo
        included) call this between repeats; serving keeps the memo.
        """
        with self._tinv_lock:
            self._tinv.clear()
            self._tinv_hits = 0
            self._tinv_misses = 0

    def target_inversion_stats(self) -> dict:
        """Memo counters: hits, misses, size, maxsize (for serving stats)."""
        with self._tinv_lock:
            return {
                "hits": self._tinv_hits,
                "misses": self._tinv_misses,
                "size": len(self._tinv),
                "maxsize": self._tinv_max,
            }

    def _target_inversion_pure(
        self, targets: Tuple[int, ...]
    ) -> Dict[int, List[Tuple[int, float]]]:
        """Hub -> [(column, dist)] buckets over ``targets``, memoized."""
        entry = self._tinv_lookup(("pure", targets))
        if entry is not None:
            return entry
        buckets: Dict[int, List[Tuple[int, float]]] = {}
        bhead, bhub, bdist = self.bwd_head, self.bwd_hub, self.bwd_dist
        for col, t in enumerate(targets):
            for k in range(bhead[t], bhead[t + 1]):
                buckets.setdefault(bhub[k], []).append((col, bdist[k]))
        return self._tinv_store(("pure", targets), buckets)

    def _target_inversion_numpy(self, targets: Tuple[int, ...]):
        """Hub-sorted target columns + per-hub run index, memoized.

        Returns ``(ttotal, tdist_s, tcol_s, uhub, ucount, ustart)`` —
        the whole target-side half of the co-occurrence join (concat,
        stable sort by hub, per-*present*-hub run offsets), which is
        exactly the part a serving workload reuses across calls when
        dispatch keeps asking about the same open orders.  The run
        index is sparse (``uhub`` holds only hubs that occur in the
        target labels), keeping every memo entry O(target label
        entries) as documented — a dense hub-indexed table would pin
        O(graph.n) per entry however small the target set.
        """
        entry = self._tinv_lookup(("numpy", targets))
        if entry is not None:
            return entry
        np = backend.np
        _, _, _, bhead, bhub, bdist = self._np_views()
        tgt = np.asarray(targets, dtype=np.int64)
        tstarts = bhead[tgt]
        tlens = bhead[tgt + 1] - tstarts
        ttotal = int(tlens.sum())
        if ttotal:
            toffs = np.cumsum(tlens) - tlens
            tpos = np.arange(ttotal, dtype=np.int64) + np.repeat(
                tstarts - toffs, tlens
            )
            thub = bhub[tpos]
            order = np.argsort(thub, kind="stable")
            tdist_s = bdist[tpos][order]
            tcol_s = np.repeat(np.arange(tgt.size, dtype=np.int64), tlens)[order]
            uhub, ucount = np.unique(thub, return_counts=True)
            ustart = np.cumsum(ucount) - ucount
            entry = (ttotal, tdist_s, tcol_s, uhub, ucount, ustart)
        else:
            entry = (0, None, None, None, None, None)
        return self._tinv_store(("numpy", targets), entry)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Merge-join of the two sorted label slices; no graph traversal.

        Domain-generic: compact int32 columns sum as exact Python ints
        and coerce to float64 on return — the same value, bit for bit,
        the flat float64 columns produce.  Under the native tier the
        same merge-join runs as one C call over the same columns.
        """
        if source == target:
            return 0.0
        if backend.use_native():
            return float(
                _native.distance(
                    self.fwd_head,
                    self.fwd_hub,
                    self.fwd_dist,
                    self.bwd_head,
                    self.bwd_hub,
                    self.bwd_dist,
                    source,
                    target,
                )
            )
        fhub, fdist = self.fwd_hub, self.fwd_dist
        bhub, bdist = self.bwd_hub, self.bwd_dist
        i = self.fwd_head[source]
        iend = self.fwd_head[source + 1]
        j = self.bwd_head[target]
        jend = self.bwd_head[target + 1]
        best = INF
        while i < iend and j < jend:
            a = fhub[i]
            b = bhub[j]
            if a == b:
                d = fdist[i] + bdist[j]
                if d < best:
                    best = d
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return float(best)

    def _meet(self, source: int, target: int) -> Tuple[float, int]:
        """Like :meth:`distance` but also returns the best hub (-1 if none)."""
        fhub, fdist = self.fwd_hub, self.fwd_dist
        bhub, bdist = self.bwd_hub, self.bwd_dist
        i = self.fwd_head[source]
        iend = self.fwd_head[source + 1]
        j = self.bwd_head[target]
        jend = self.bwd_head[target + 1]
        best = INF
        hub = -1
        while i < iend and j < jend:
            a = fhub[i]
            b = bhub[j]
            if a == b:
                d = fdist[i] + bdist[j]
                if d < best:
                    best = d
                    hub = a
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return float(best), hub

    def one_to_many(self, source: int, targets) -> List[float]:
        """HL fast path: scan the source label once for the whole batch.

        Dispatches on the active backend: the numpy kernel merge-joins
        the source label against the concatenated target columns in C;
        the pure path scans with a hub -> distance dict.  Both return
        identical values (``tests/test_backend_parity.py``).
        """
        targets = list(targets)
        if not targets:
            return []
        if backend.use_native():
            return self._one_to_many_native(source, targets)
        if backend.use_numpy():
            return self._one_to_many_numpy(source, targets)
        return self._one_to_many_pure(source, targets)

    def _one_to_many_native(self, source: int, targets: Sequence[int]) -> List[float]:
        """Native batch: the dense-gather kernel as one C call.

        Same dense hub-indexed scatter/gather the numpy kernel performs
        (and the same candidate sums the pure scan folds), compiled —
        the kernel reads the columns through the buffer protocol, so
        flat and compact domains take the identical code path.  Results
        are plain Python floats built by the extension; ``list`` is the
        column constructor at the boundary.
        """
        return list(
            _native.one_to_many(
                self.fwd_head,
                self.fwd_hub,
                self.fwd_dist,
                self.bwd_head,
                self.bwd_hub,
                self.bwd_dist,
                self.graph.n,
                source,
                targets,
            )
        )

    def _one_to_many_pure(self, source: int, targets: Sequence[int]) -> List[float]:
        """PR 2's label-scan batch: one pass per target, dict probes.

        The forward label becomes a hub -> distance dict (built once per
        call); every target then costs one pass over its backward label
        with O(1) dict probes — no merge pointer per pair, no search.
        """
        src: Dict[int, float] = {}
        fhub, fdist = self.fwd_hub, self.fwd_dist
        # float() up front keeps the sums float64 in the compact (int32)
        # domain too — int -> float64 casts are exact, so the answers
        # stay bit-identical to the flat columns'.
        for i in range(self.fwd_head[source], self.fwd_head[source + 1]):
            src[fhub[i]] = float(fdist[i])
        bhead, bhub, bdist = self.bwd_head, self.bwd_hub, self.bwd_dist
        get = src.get
        out: List[float] = []
        for t in targets:
            if t == source:
                out.append(0.0)
                continue
            best = INF
            for j in range(bhead[t], bhead[t + 1]):
                d = get(bhub[j])
                if d is not None:
                    d += bdist[j]
                    if d < best:
                        best = d
            out.append(best)
        return out

    def _one_to_many_numpy(self, source: int, targets: Sequence[int]) -> List[float]:
        """Vectorised batch: dense hub gather + ``minimum.reduceat``.

        The source's forward label is scattered into a dense
        hub-indexed distance vector (every other hub reads ``inf``, so
        there is no membership test at all); the targets' backward
        columns are gathered into one concatenated target-major run,
        each entry becomes ``dense[hub] + dist`` in a single gather +
        add, and ``minimum.reduceat`` over the per-target run
        boundaries collapses the candidates to one distance per target.
        """
        np = backend.np
        fhead, fhub, fdist, bhead, bhub, bdist = self._np_views()
        tgt = np.asarray(targets, dtype=np.int64)
        fs, fe = int(fhead[source]), int(fhead[source + 1])
        starts = bhead[tgt]
        lens = bhead[tgt + 1] - starts
        total = int(lens.sum())
        if total == 0 or fe == fs:
            out = np.full(tgt.size, INF)
        else:
            dense = np.full(self.graph.n, INF)
            dense[fhub[fs:fe]] = fdist[fs:fe]
            offs = np.cumsum(lens) - lens  # start of each target's run
            pos = np.arange(total, dtype=np.int64) + np.repeat(starts - offs, lens)
            cand = dense.take(bhub[pos]) + bdist[pos]
            # reduceat semantics force two guards: an empty run's slot
            # reports the *next* run's first element (overwritten via the
            # lens == 0 mask below), and an empty run at the very end
            # would index one past the data (the appended inf sentinel
            # absorbs it, and can only ever relax a minimum to itself).
            # offs <= total always, and the appended sentinel makes
            # index ``total`` (an empty trailing run) valid.
            out = np.minimum.reduceat(np.append(cand, INF), offs)
            out[lens == 0] = INF
        out[tgt == source] = 0.0
        return out.tolist()

    def distance_table(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> List[List[float]]:
        """Batched HL join over the actual hub co-occurrences.

        Work is proportional to the number of (source entry, target
        entry) pairs that share a hub instead of ``|sources| x
        |targets|`` label scans, on both backends; the numpy kernel
        additionally runs that work as a bucketed broadcast +
        ``minimum.reduceat`` with no Python in the loop.
        """
        targets = list(targets)
        if not targets:
            return [[] for _ in sources]
        if backend.use_native():
            return self._distance_table_native(list(sources), targets)
        if backend.use_numpy():
            return self._distance_table_numpy(list(sources), targets)
        return self._distance_table_pure(sources, targets)

    def _distance_table_native(
        self, sources: List[int], targets: List[int]
    ) -> List[List[float]]:
        """Native table: counting-sorted co-occurrence join in one C call.

        The kernel builds the same hub -> (column, dist) inversion the
        other tiers use (counting sort by hub), then streams every
        source's forward label through the per-hub runs with a
        scatter-min — exactly the co-occurrence pairs the pure scan and
        the numpy ``minimum.at`` kernel visit, so answers are
        bit-identical; rows come back as plain Python float lists and
        ``list`` re-containers them at the boundary.
        """
        return list(
            _native.distance_table(
                self.fwd_head,
                self.fwd_hub,
                self.fwd_dist,
                self.bwd_head,
                self.bwd_hub,
                self.bwd_dist,
                self.graph.n,
                sources,
                targets,
            )
        )

    def _distance_table_pure(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> List[List[float]]:
        """PR 2's label-scan table: invert the target labels, then stream.

        The targets' backward labels are bucketed by hub up front
        (``hub -> [(column, dist)]``, memoized per target tuple — see
        :meth:`_target_inversion_pure`); each source then scans its
        forward label once, and every hub hit replays its bucket with
        plain additions — no per-pair merge pointers, no hashing in the
        inner loop.
        """
        buckets = self._target_inversion_pure(tuple(targets))
        fhead, fhub, fdist = self.fwd_head, self.fwd_hub, self.fwd_dist
        ncols = len(targets)
        get = buckets.get
        table: List[List[float]] = []
        for s in sources:
            row = [INF] * ncols
            for i in range(fhead[s], fhead[s + 1]):
                bucket = get(fhub[i])
                if bucket is None:
                    continue
                d = float(fdist[i])  # exact in the compact int32 domain too
                for col, bd in bucket:
                    nd = d + bd
                    if nd < row[col]:
                        row[col] = nd
            for col, t in enumerate(targets):
                if t == s:
                    row[col] = 0.0
            table.append(row)
        return table

    def _distance_table_numpy(
        self, sources: List[int], targets: List[int]
    ) -> List[List[float]]:
        """Co-occurrence join + ``minimum.at`` scatter table kernel.

        1. Concatenate the targets' backward labels, counting-sort the
           entries by hub (``gstart``/``gcount`` index the per-hub runs
           directly by hub id — node ids are dense, no ``unique``).
        2. Concatenate the sources' forward labels (source-major) and
           expand each source entry against its hub's target run via
           the cumulative-offset trick — materialising exactly the hub
           co-occurrence pairs the pure scan iterates, never the dense
           ``entries x columns`` product.
        3. One ``minimum.at`` scatters every candidate sum into the
           flat table (numpy's indexed-loop fast path makes this the
           cheapest grouping: no per-pair sort, no reduceat segments).

        Sources are chunked so the pair expansion stays within
        ``_TABLE_PAIR_BUDGET``; the scatter-min accumulates across
        chunks, so chunk boundaries cannot change results.

        The target side (concat + counting-sort + run offsets) comes
        from the per-tuple memo (:meth:`_target_inversion_numpy`), so a
        serving workload that reuses target sets pays it once.
        """
        np = backend.np
        fhead, fhub, fdist, _, _, _ = self._np_views()
        src = np.asarray(sources, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.int64)
        ncols = tgt.size
        flat = np.full(src.size * ncols, INF)

        # --- target side: memoized concat + sort by hub --------------
        ttotal, tdist_s, tcol_s, uhub, ucount, ustart = self._target_inversion_numpy(
            tuple(targets)
        )
        if ttotal:
            # --- source side: concat, then join chunk by chunk -------
            sstarts = fhead[src]
            slens = fhead[src + 1] - sstarts
            stotal = int(slens.sum())
            if stotal:
                soffs = np.cumsum(slens) - slens
                spos = np.arange(stotal, dtype=np.int64) + np.repeat(
                    sstarts - soffs, slens
                )
                shub = fhub[spos]
                sdist = fdist[spos]
                if sdist.dtype != np.float64:
                    # Compact domain: widen the source side once so the
                    # candidate sums are float64 (exact for int32 inputs
                    # and immune to int32 + int32 wrap); the target side
                    # stays narrow — the gather-bound hot path.
                    sdist = sdist.astype(np.float64)
                srowkey = np.repeat(np.arange(src.size, dtype=np.int64) * ncols, slens)
                # Sparse probe of the memoized run index: source hubs
                # absent from the target labels get cnt 0 (their base
                # is never consumed — np.repeat with 0 repeats).
                upos = np.searchsorted(uhub, shub)
                upos[upos == uhub.size] = 0  # out-of-range probes
                hit = uhub[upos] == shub
                cnt = np.where(hit, ucount[upos], 0)
                csum = np.cumsum(cnt)
                base = ustart[upos]
                lo = 0
                while lo < stotal:
                    # Largest entry range whose pair count fits the budget.
                    done = csum[lo - 1] if lo else 0
                    hi = int(
                        np.searchsorted(csum, done + _TABLE_PAIR_BUDGET, "right")
                    )
                    hi = max(hi, lo + 1)
                    ccnt = cnt[lo:hi]
                    pairs = int(csum[hi - 1] - done)
                    if pairs:
                        pc = np.cumsum(ccnt) - ccnt
                        pidx = np.arange(pairs, dtype=np.int64) + np.repeat(
                            base[lo:hi] - pc, ccnt
                        )
                        cand = np.repeat(sdist[lo:hi], ccnt) + tdist_s.take(pidx)
                        key = np.repeat(srowkey[lo:hi], ccnt) + tcol_s.take(pidx)
                        np.minimum.at(flat, key, cand)
                    lo = hi

        table = flat.reshape(src.size, ncols)
        table[src[:, None] == tgt[None, :]] = 0.0
        return table.tolist()

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Parent-hub walk on both sides, then CH shortcut unpacking."""
        if source == target:
            return Path((source,), 0.0)
        best, hub = self._meet(source, target)
        if hub < 0:
            return None
        packed = self._walk(
            self.fwd_head, self.fwd_hub, self.fwd_parent, source, hub
        )
        packed.reverse()  # source .. hub
        down = self._walk(
            self.bwd_head, self.bwd_hub, self.bwd_parent, target, hub
        )
        packed.extend(down[1:])  # hub already present
        return Path(tuple(unpack_shortcuts(self._middle, packed)), best)

    @staticmethod
    def _walk(
        head: array, hubs: array, parents: array, node: int, hub: int
    ) -> List[int]:
        """Parent chain ``hub -> .. -> node`` inside ``node``'s label.

        Every parent of a kept hub is itself a kept hub (see
        :func:`_pruned_upward_labels`), so each step is one binary search
        in the node's sorted label slice.
        """
        lo, hi = head[node], head[node + 1]
        chain = [hub]
        x = hub
        while x != node:
            i = bisect_left(hubs, x, lo, hi)
            x = parents[i]
            chain.append(x)
        return chain
