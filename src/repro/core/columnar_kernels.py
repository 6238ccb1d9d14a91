"""Vectorized FAST counting kernels over the columnar edge store.

These kernels produce counts **identical** to the pure-Python loops in
:mod:`repro.core.fast_star` / :mod:`repro.core.fast_tri`
(property-tested across all motif classes, timestamp ties included),
but express Algorithms 1 and 2 of the paper as a handful of NumPy
array passes instead of per-edge interpreter steps.  Select them with
``backend="columnar"`` anywhere a
:class:`~repro.core.registry.CountRequest` is accepted.

How the Python loops vectorize
------------------------------

**Window bounds are edge-id ranks.**  Edges are canonically sorted by
``(t, input pos)``, so for any threshold ``x`` the set
``{e : t_e <= x}`` is an edge-id prefix found by one binary search on
the timestamp column, and "entries of center *u*'s CSR row below that
id" is one probe of the row-composite key
(:attr:`~repro.graph.columnar.ColumnarGraph.inc_row_key`).  Every
δ-window bound used below is precomputed this way for *all* incidence
positions at once — the edge-id ranks once per edge (m sorted probes,
gathered to the 2m positions), the row and group ranks as sorted
probes — memoized per δ on the columnar store (HARE warms the memo
before forking so every worker shares it copy-on-write instead of
recomputing per batch).

**FAST-Star has a closed form per anchor.**  Every star/pair motif
triple contains at least two edges on the *same* (center, neighbour)
pair: the pair motifs use all three, Star-I its 2nd+3rd, Star-II its
1st+3rd, Star-III its 1st+2nd edge (the "anchor pair").  Fixing the
anchor pair, the third edge is counted by a prefix-sum difference
(Algorithm 1's incremental ``min``/``mout`` hash maps become rank
differences in the group-sorted ordering
:attr:`~repro.graph.columnar.ColumnarGraph.grp_inv` / ``grp_cum_in``).
Summing those differences over the anchor pair's second element — a
contiguous slot range — telescopes into differences of *prefix sums of
prefix sums*, so the kernel never materialises edge pairs at all: it
reads 16 direction-split prefix arrays over the 2m incidence slots
and evaluates every counter cell with O(1) arithmetic per anchor edge.
Twelve of those arrays do not depend on δ; they are built once per
columnar store and kept across δ, so a δ sweep rebuilds only the
window-dependent four.  The anchors are partitioned by their own
direction once, so each counter cell is one plain sum.  Total work is
O(m log m), *below* the paper's O(d^δ · m) bound for FAST-Star.

**FAST-Tri counts each triangle once, from one corner.**  The
canonical tie-break rule makes "``e_k`` after ``e_j``" ⟺
``eid_k > eid_j``, so the pair timeline ``E(v, w)`` is cut by edge-id
rank probes into the pair CSR and split by direction with prefix
sums.  An instance ``e1 < e2 < e3`` is a Type-I, a Type-II and a
Type-III observation from its three corners, but only the corner
shared by ``e1`` and ``e2`` sees it as Type-III (``e_k = e3`` after
both).  The kernel therefore counts Type-III observations only — two
rank probes per closed wedge — and fills the Type-I and Type-II cells
from them: per type the 8 cells biject with the 8 triangle motifs, so
the three isomorphic cells of a motif hold equal counts
(:data:`TRI_FILL`, derived from
:func:`~repro.core.motifs.tri_cell_motif`).  Open wedges (far pairs
that never interact) are rejected early by a Bloom-filter gather
before any binary search runs.

**Exact accumulation.**  Counter cells are accumulated with pure
int64 sums and ``np.add.at`` (never float64 ``bincount`` weights), so
counts stay exact arbitrarily far beyond 2**53.

Work decomposition
------------------

Both kernels accept the scheduler's ``(node, i_lo, i_hi)`` tasks.
Ownership of a triple is defined by its *anchor edge* — the earlier
edge of the anchor pair for stars, the instance's first edge (at the
corner it shares with the second) for triangles — which every complete
task cover visits exactly once, so merged task results equal the
serial count exactly.  Every partial triangle counter is
corner-symmetric (its three isomorphic cells agree).  The per-task
*split* may differ from the Python kernels, whose ownership is each
corner's first edge; only the union is contracted — see
:func:`repro.core.fast_star.count_star_pair_tasks`.

Peak memory is O(m) for the star kernel and bounded by
``chunk_pairs`` expanded wedges (default 2**22 ≈ 4M) for the triangle
kernel, independent of δ.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.motifs import tri_cell_motif
from repro.graph.columnar import ColumnarGraph
from repro.graph.temporal_graph import TemporalGraph

#: Default cap on expanded wedge pairs processed at once (FAST-Tri).
DEFAULT_CHUNK_PAIRS = 1 << 22

#: A work task, as produced by the HARE scheduler.
Task = Tuple[int, int, Optional[int]]


def _task_positions(
    col: ColumnarGraph, tasks: Optional[Iterable[Task]], tail: int = 1
) -> np.ndarray:
    """Flatten tasks into absolute incidence positions of anchor edges.

    ``tail`` is how many trailing positions of a CSR row cannot anchor
    anything (at least one later edge must exist).  ``tasks=None``
    selects every eligible position of every center — the full serial
    count.
    """
    indptr = col.inc_indptr
    if tasks is None:
        sizes = np.maximum(np.diff(indptr) - tail, 0)
        total = int(sizes.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        reps = np.repeat(np.arange(col.num_nodes, dtype=np.int64), sizes)
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        return (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, sizes)
            + indptr[reps]
        )
    pieces: List[np.ndarray] = []
    for node, i_lo, i_hi in tasks:
        row_lo = int(indptr[node])
        limit = int(indptr[node + 1]) - row_lo - tail
        hi = limit if i_hi is None else min(i_hi, limit)
        if hi > i_lo:
            pieces.append(np.arange(row_lo + i_lo, row_lo + hi, dtype=np.int64))
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


def _expand_pairs(
    anchor: np.ndarray, counts: np.ndarray, gap: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-anchor successor counts into flat (anchor, other) pairs."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    A = np.repeat(anchor, counts)
    # other = anchor + gap + (rank of the pair inside its anchor's run)
    B = np.repeat(anchor + gap - (np.cumsum(counts) - counts), counts)
    B += np.arange(total, dtype=np.int64)
    return A, B


def _chunks(counts: np.ndarray, chunk_pairs: int) -> Iterable[Tuple[int, int]]:
    """Slice the anchor axis so each slice expands to ≤ chunk_pairs.

    A single anchor whose window alone exceeds the cap still forms its
    own (oversized) chunk — correctness never depends on the cap.
    """
    if len(counts) == 0:
        return
    csum = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = int(csum[start - 1]) if start else 0
        stop = int(np.searchsorted(csum, base + chunk_pairs, side="right"))
        stop = min(max(stop, start + 1), len(counts))
        yield start, stop
        start = stop


#: ``delta_cache`` key of the δ-free star tables; it survives δ changes.
_STAR_STATIC = ("star-static",)


def _retain_delta(col: ColumnarGraph, delta: float) -> None:
    """Drop every memo of another δ, keeping the δ-free star tables."""
    d = float(delta)
    cache = col.delta_cache
    for key in list(cache):  # a snapshot: other threads may share the store
        if key != _STAR_STATIC and key[1] != d:
            cache.pop(key, None)


def _window_bounds(
    col: ColumnarGraph, delta: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-position δ-window bounds, all four flavours, fully vectorized.

    Returns ``(lo_eid, hi_eid, ws, we)`` where for every incidence
    position ``p``:

    * ``lo_eid[p]`` / ``hi_eid[p]`` — global edge-id ranks of the
      window ``[t_p - δ, t_p + δ]`` (first id with ``t >= t_p - δ``,
      first id with ``t > t_p + δ``);
    * ``ws[p]`` / ``we[p]`` — the same bounds as absolute positions
      inside ``p``'s own CSR row (row-composite probes).

    The edge-id ranks are searched once per *edge* (m sorted needles)
    and gathered to the 2m positions through ``inc_eid``; the row
    probes are sorted needles too (a row's positions are eid-ordered).
    Memoized per δ on ``col.delta_cache`` (single δ resident — sweeps
    revisit deltas rarely, HARE batches revisit the same δ often).
    """
    key = ("bounds", float(delta))
    cached = col.delta_cache.get(key)
    if cached is not None:
        return cached
    t = col.t
    lo_eid = np.searchsorted(t, t - delta, side="left")[col.inc_eid]
    hi_eid = edge_window_ends(col, delta)[col.inc_eid]
    row_base = col.inc_row * np.int64(col.num_edges + 1)
    ws = np.searchsorted(col.inc_row_key, row_base + lo_eid)
    we = np.searchsorted(col.inc_row_key, row_base + hi_eid)
    _retain_delta(col, delta)
    bounds = col.delta_cache[key] = (lo_eid, hi_eid, ws, we)
    return bounds


def _dir_prefixes(values: np.ndarray, is_in: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Direction-split exclusive prefix sums ``(OUT, IN)`` of a per-slot array.

    ``is_in`` is the 0/1 direction of each slot.
    """
    out = np.zeros(len(values) + 1, dtype=np.int64)
    into = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    np.cumsum(values * is_in, out=into[1:])
    out -= into
    return out, into


def _star_static(col: ColumnarGraph):
    """δ-free tables of the star closed form, memoized once per store.

    Returns ``(is_in, prefixes)``: the 0/1 direction of each group
    slot and the six base terms' direction-split prefix pairs that do
    not depend on δ.  Kept under a δ-free key that
    :func:`_retain_delta` spares, so a δ sweep builds them once.
    """
    cached = col.delta_cache.get(_STAR_STATIC)
    if cached is not None:
        return cached
    L = 2 * col.num_edges
    slot_ids = np.arange(L, dtype=np.int64)
    # Per-slot base terms (slot s holds position p_s = order[s]):
    # "outside-group" rank excesses — global minus in-group quantities.
    pos_s = col.grp_order
    cum_in = col.inc_cum_in
    gcum_in = col.grp_cum_in
    is_in = col.inc_dir[pos_s]
    cin = cum_in[pos_s] - gcum_in[:-1]       # IN before p_s, other nbrs
    gin = cum_in[pos_s + 1] - gcum_in[1:]    # ... up to and incl. p_s
    prefixes = {
        "one": _dir_prefixes(np.ones(L, dtype=np.int64), is_in),
        "slot": _dir_prefixes(slot_ids, is_in),
        "cin": _dir_prefixes(cin, is_in),
        "gin": _dir_prefixes(gin, is_in),
        "osub": _dir_prefixes(pos_s - slot_ids, is_in),
        "ggin": _dir_prefixes(gcum_in[:-1], is_in),
    }
    static = col.delta_cache[_STAR_STATIC] = (is_in, prefixes)
    return static


def _star_precompute(col: ColumnarGraph, delta: float):
    """δ-dependent, task-independent tables of the star closed form.

    Returns ``(gws, gwe, prefixes)``: for each group *slot*, the slots
    where its position's δ-window starts and ends inside its group, and
    the base-term name → direction-split prefix pair map (the six δ-free
    pairs of :func:`_star_static` plus ``win``/``wsub``).  Memoized
    alongside the window bounds so HARE batches (and repeated serial
    calls at one δ) pay the O(m log m) setup once.
    """
    key = ("star", float(delta))
    cached = col.delta_cache.get(key)
    if cached is not None:
        return cached
    _, _, ws, we = _window_bounds(col, delta)
    is_in, static = _star_static(col)
    pos_s = col.grp_order
    # Each slot's group key, grp_id * (2m + 1).  A group's slots hold
    # its positions in ascending order, so these probes are sorted.
    grp_base = col.grp_rank_key - pos_s
    ws_s = ws[pos_s]
    gws = np.searchsorted(col.grp_rank_key, grp_base + ws_s)
    gwe = np.searchsorted(col.grp_rank_key, grp_base + we[pos_s])
    win = col.inc_cum_in[ws_s] - col.grp_cum_in[gws]  # IN before the window
    prefixes = dict(
        static,
        win=_dir_prefixes(win, is_in),
        wsub=_dir_prefixes(ws_s - gws, is_in),
    )
    tables = col.delta_cache[key] = (gws, gwe, prefixes)
    return tables


def edge_window_ends(col: ColumnarGraph, delta: float) -> np.ndarray:
    """Per-*edge* forward δ-window end ranks: first id with ``t > t_e + δ``.

    The edge-indexed sibling of :func:`_window_bounds` (which is
    incidence-position-indexed, and gathers its ``hi_eid`` from this
    table): an edge's forward δ-window is exactly the id range
    ``(e, edge_window_ends(col, δ)[e])``.  This is also the
    candidate-cap primitive of the sampling kernels
    (:mod:`repro.core.sampling_kernels`), which only ever look
    *forward* from an anchor.  Memoized per δ alongside the other
    kernel tables; exported/installed through the same shared-memory
    bundle so pool workers share one copy.
    """
    key = ("ewin", float(delta))
    cached = col.delta_cache.get(key)
    if cached is not None:
        return cached
    t = col.t
    hi = np.searchsorted(t, t + delta, side="right")
    col.delta_cache[key] = hi
    return hi


def warm_delta_cache(
    col: ColumnarGraph, delta: float, star_pair: bool = True
) -> None:
    """Force the FAST per-δ memos now (called before forking HARE workers).

    Sampling jobs warm their own (and only their own) table by calling
    :func:`edge_window_ends` directly — it has no dependency on the
    position-indexed window bounds built here.
    """
    _window_bounds(col, delta)
    if star_pair:
        _star_precompute(col, delta)


#: Star prefix-table names, in their packed export order.
_STAR_TERMS = ("one", "slot", "cin", "gin", "win", "osub", "wsub", "ggin")


def export_delta_cache(
    col: ColumnarGraph, delta: float, star_pair: bool = True,
    *, window_bounds: bool = True, edge_window: bool = False,
) -> "Dict[str, np.ndarray]":
    """Flatten the per-δ memo tables into a named-array dict.

    Warms the memos first if needed.  The returned mapping round-trips
    through :func:`install_delta_cache`, which is how the persistent
    worker pool ships one copy of the O(m)-sized δ tables to every
    worker via shared memory instead of having each worker redo the
    O(m log m) setup (and hold its own quarter-gigabyte copy).
    ``window_bounds``/``star_pair`` select the FAST kernel tables;
    ``edge_window`` adds the sampling kernels' per-edge window ranks
    (:func:`edge_window_ends`) — a sampling-only job exports just
    those.
    """
    arrays: "Dict[str, np.ndarray]" = {}
    if window_bounds or star_pair:
        lo_eid, hi_eid, ws, we = _window_bounds(col, delta)
        arrays.update({
            "bounds.lo_eid": lo_eid,
            "bounds.hi_eid": hi_eid,
            "bounds.ws": ws,
            "bounds.we": we,
        })
    if star_pair:
        gws, gwe, prefixes = _star_precompute(col, delta)
        arrays["star.gws"] = gws
        arrays["star.gwe"] = gwe
        for name in _STAR_TERMS:
            out, into = prefixes[name]
            arrays[f"star.{name}.out"] = out
            arrays[f"star.{name}.in"] = into
    if edge_window:
        arrays["ewin.hi"] = edge_window_ends(col, delta)
    return arrays


def install_delta_cache(
    col: ColumnarGraph, delta: float, arrays: "Mapping[str, np.ndarray]"
) -> None:
    """Install exported per-δ tables into ``col.delta_cache``.

    The inverse of :func:`export_delta_cache`: after this call the
    kernels hit the memo instead of recomputing.  Replaces whatever
    other δ was resident (the cache is single-entry per kind, matching
    :func:`_window_bounds`); the δ-free star tables stay.
    """
    _retain_delta(col, delta)
    if "bounds.lo_eid" in arrays:
        col.delta_cache[("bounds", float(delta))] = (
            arrays["bounds.lo_eid"],
            arrays["bounds.hi_eid"],
            arrays["bounds.ws"],
            arrays["bounds.we"],
        )
    if "ewin.hi" in arrays:
        col.delta_cache[("ewin", float(delta))] = arrays["ewin.hi"]
    if "star.gws" in arrays:
        prefixes = {
            name: (arrays[f"star.{name}.out"], arrays[f"star.{name}.in"])
            for name in _STAR_TERMS
        }
        col.delta_cache[("star", float(delta))] = (
            arrays["star.gws"],
            arrays["star.gwe"],
            prefixes,
        )


def count_star_pair_columnar(
    graph: TemporalGraph,
    delta: float,
    tasks: Optional[Iterable[Task]] = None,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized FAST-Star (Algorithm 1): star + pair flat counters.

    Returns the 24-cell star and 8-cell pair counter arrays (int64,
    layout of :func:`repro.core.counters.star_index` /
    :func:`~repro.core.counters.pair_index`).  The merged result over
    any complete task cover is identical to
    :func:`repro.core.fast_star.count_star_pair` (``tasks=None`` *is*
    the complete cover).  ``chunk_pairs`` is accepted for interface
    symmetry with the triangle kernel; this kernel materialises no
    pairs.
    """
    del chunk_pairs  # closed form: nothing to chunk
    col = graph.columnar()
    star_acc = np.zeros(24, dtype=np.int64)
    pair_acc = np.zeros(8, dtype=np.int64)

    anchors = _task_positions(col, tasks)
    if len(anchors) == 0:
        return star_acc, pair_acc

    _, gwe, P = _star_precompute(col, delta)
    _, _, _, we = _window_bounds(col, delta)
    cum_in = col.inc_cum_in
    gcum_in = col.grp_cum_in

    # -- per-anchor closed form ----------------------------------------
    # The anchor edge (position A, slot s1) pairs with every later
    # same-group edge in its δ-window: slots s2 in (s1, gwe[s1]).  All
    # four motif roles sum a per-s2 affine term over that slot range,
    # evaluated below as prefix-sum differences, split by d2 = dir(s2).
    # The anchor's direction d1 fixes the counter cell, so partitioning
    # the anchors by d1 once makes every cell add one plain sum.  Taking
    # the anchors in slot order makes the prefix-table gathers walk
    # forward through memory; the sums do not depend on the order.
    slots = np.sort(col.grp_inv[anchors])
    anchors = col.grp_order[slots]
    d1_all = col.inc_dir[anchors]
    for d1 in (0, 1):
        sel = d1_all == d1
        A = anchors[sel]
        if len(A) == 0:
            continue
        s1 = slots[sel]
        lo = s1 + 1
        hi = gwe[s1]
        cin1 = cum_in[A] - gcum_in[s1]
        osub1 = A - s1
        ggin1 = gcum_in[s1] + d1
        we_A = we[A]
        const3_in = cum_in[we_A] - gcum_in[hi]     # Star-III: IN lasts in window
        const3_any = we_A - hi                     # ... any-direction counterpart

        for d2 in (0, 1):
            def span(name: str) -> np.ndarray:
                prefix = P[name][d2]
                return prefix[hi] - prefix[lo]

            N = span("one")
            S_slot = span("slot")
            S_cin = span("cin")
            S_gin = span("gin")
            S_win = span("win")
            S_osub = span("osub")
            S_wsub = span("wsub")
            S_ggin = span("ggin")

            # Pair motifs: anchor = (1st, 3rd) edge, middles in-group.
            w_in = S_ggin - N * ggin1
            w_out = (S_slot - N * lo) - w_in
            pair_acc[d1 * 4 + 2 + d2] += int(w_in.sum())   # d1*4 + IN*2 + d2
            pair_acc[d1 * 4 + d2] += int(w_out.sum())

            # Star-II: anchor = (1st, 3rd) edge, middles on other nbrs.
            w_in = S_cin - N * cin1
            w_out = (S_osub - S_cin) - N * (osub1 - cin1)
            star_acc[8 + d1 * 4 + 2 + d2] += int(w_in.sum())
            star_acc[8 + d1 * 4 + d2] += int(w_out.sum())

            # Star-I: anchor = (2nd, 3rd) edge, firsts on other nbrs in
            # [window start of the 3rd edge, anchor).
            w_in = N * cin1 - S_win
            w_out = N * (osub1 - cin1) - (S_wsub - S_win)
            star_acc[4 + d1 * 2 + d2] += int(w_in.sum())   # dI*4 + d1*2 + d2
            star_acc[d1 * 2 + d2] += int(w_out.sum())

            # Star-III: anchor = (1st, 2nd) edge, lasts on other nbrs in
            # (2nd edge, window end of the anchor].
            w_in = N * const3_in - S_gin
            w_out = N * (const3_any - const3_in) - (S_osub - S_gin)
            star_acc[16 + d1 * 4 + d2 * 2 + 1] += int(w_in.sum())
            star_acc[16 + d1 * 4 + d2 * 2] += int(w_out.sum())

    return star_acc, pair_acc


def _tri_fill_table() -> np.ndarray:
    """Type-III cell that each of the 24 triangle cells copies.

    Every triangle instance ``e1 < e2 < e3`` has exactly one Type-III
    observation: at the corner shared by ``e1`` and ``e2``, with the far
    edge ``e3`` after them.  Per type, the 8 cells biject with the 8
    triangle motifs (Fig. 8), so the Type-I and Type-II cells of a
    motif hold the same count as its Type-III cell.
    """
    cells = [(di, dj, dk) for di in (0, 1) for dj in (0, 1) for dk in (0, 1)]
    type3 = {
        tri_cell_motif(2, *cell).name: index for index, cell in enumerate(cells)
    }
    table = [type3[tri_cell_motif(t, *cell).name] for t in (0, 1, 2) for cell in cells]
    if len(type3) != 8 or any(len(set(table[8 * t:8 * t + 8])) != 8 for t in (0, 1, 2)):
        raise AssertionError("triangle cells do not biject with the triangle motifs")
    return np.array(table, dtype=np.int64)


#: Flat triangle cell -> index of its Type-III cell (see
#: :func:`_tri_fill_table`).
TRI_FILL = _tri_fill_table()


def count_triangle_columnar(
    graph: TemporalGraph,
    delta: float,
    tasks: Optional[Iterable[Task]] = None,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> np.ndarray:
    """Vectorized FAST-Tri (Algorithm 2): the 24-cell triangle counter.

    Produces the dependency-free (``multiplicity=3``) counts, identical
    to :func:`repro.core.fast_tri.count_triangle` over any complete
    task cover.  Each instance is found once, from the corner of its
    first two edges (the Type-III observation); the Type-I and
    Type-II cells are filled from it (:data:`TRI_FILL`), so every
    partial counter is corner-symmetric.  The sequential center-removal
    mode has no vectorized form (it is inherently order-dependent);
    callers wanting it use the Python backend.
    """
    col = graph.columnar()
    tri3 = np.zeros(8, dtype=np.int64)

    anchors = _task_positions(col, tasks)
    if len(anchors) == 0 or len(col.pair_keys) == 0:
        return np.zeros(24, dtype=np.int64)

    n = col.num_nodes
    nbr = col.inc_nbr
    dirs = col.inc_dir
    eid = col.inc_eid
    pair_keys = col.pair_keys
    pair_rank = col.pair_rank_key
    pair_cum_in = col.pair_cum_in
    m_plus = np.int64(col.num_edges + 1)

    _, hi_eid, _, we = _window_bounds(col, delta)
    counts = np.maximum(we[anchors] - (anchors + 1), 0)

    for a, b in _chunks(counts, chunk_pairs):
        pos_i, pos_j = _expand_pairs(anchors[a:b], counts[a:b], gap=1)
        vi = nbr[pos_i]
        vj = nbr[pos_j]
        # A wedge needs distinct far endpoints whose pair exists at
        # all; the Bloom gather rejects the bulk of open wedges before
        # any binary search runs.
        key = np.minimum(vi, vj)
        key *= np.int64(n)
        key += np.maximum(vi, vj)
        closed = col.pair_bloom[col.bloom_hash(key)]
        closed &= vi != vj
        keep = np.flatnonzero(closed)
        if len(keep) == 0:
            continue
        key = key[keep]
        slot = np.searchsorted(pair_keys, key)
        found = pair_keys[np.minimum(slot, len(pair_keys) - 1)] == key
        keep = keep[found]
        if len(keep) == 0:
            continue
        slot = slot[found]
        pos_i = pos_i[keep]
        pos_j = pos_j[keep]

        # Type-III timeline span as edge-id ranks: e_k after e_j and
        # t_k <= t_i + δ (inclusive), exactly as in the Python loop.
        base_slot = slot * m_plus
        lo = np.searchsorted(pair_rank, base_slot + eid[pos_j] + 1)
        hi = np.searchsorted(pair_rank, base_slot + hi_eid[pos_i])
        span = hi - lo
        n_in = pair_cum_in[hi] - pair_cum_in[lo]
        # dk is the third edge's direction relative to vi; pair dirs
        # are normalised to the smaller endpoint, so flip when vi is
        # the larger one (the Fig. 7 convention).
        n_dk1 = np.where(vi[keep] > vj[keep], span - n_in, n_in)
        # Exact int64 scatter-add into the (di, dj, dk) cells.
        cell = dirs[pos_i] * 4 + dirs[pos_j] * 2
        np.add.at(tri3, cell, span - n_dk1)
        np.add.at(tri3, cell + 1, n_dk1)

    return tri3[TRI_FILL]
