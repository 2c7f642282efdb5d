"""Compact label columns (HL2) — the PR 6 exactness and footprint pins.

What must hold:

* **Answer identity**: a compact-domain index answers ``distance`` /
  ``one_to_many`` / ``distance_table`` / ``shortest_path`` bit-for-bit
  like the flat index it was encoded from, on both backends.
* **Exactness guard** (hypothesis-pinned): the distance encoder picks
  ``i4`` exactly when every distance is a non-negative integral value
  below 2^31; anything that would quantise lossily (non-integral
  floats, values past the int32 boundary with inexact deltas) falls
  back to ``dd`` or raw ``f8`` — and no weight class ever changes a
  query answer.
* **Round-trip determinism**: save -> load -> save is byte-identical;
  the flat (HL1) re-save of a compact-domain index equals the original
  flat save.
* **Observability**: ``HubLabelIndex.stats()`` and
  ``inspect_bundle`` / ``python -m repro.serialize --inspect`` report
  the per-section footprint, and the towns fixture's label sections
  shrink >= 2.5x (hardware-independent hard floor; the NH bar lives in
  ``benchmarks/test_hl_speed.py``).
"""

import io
import random
import struct
from array import array

import pytest
from conftest import guard_case, weighted_chain_graph
from hypothesis import HealthCheck, given, settings

from repro import backend
from repro.baselines import HubLabelIndex
from repro.core.serialize import (
    _DIST_DD,
    _DIST_F8,
    _DIST_I4,
    BundleCorrupted,
    _encode_dists,
    _encode_label_side,
    bundle_bytes,
    inspect_bundle,
    load_bundle,
    load_hl_index,
    save_bundle,
    save_hl_index,
)
from repro.core.serialize import main as serialize_main
from repro.datasets import grid_city, towns_and_highways
from repro.graph import GraphBuilder

#: Backends the identity properties run under (both when numpy exists).
BACKENDS = (["numpy"] if backend.HAS_NUMPY else []) + ["pure"]


@pytest.fixture(scope="module")
def towns_graph():
    return towns_and_highways(3, seed=4)


@pytest.fixture(scope="module")
def towns_hl(towns_graph):
    return HubLabelIndex(towns_graph)


def _pairs(n, count, seed):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


# ----------------------------------------------------------------------
# Answer identity: compact domain == flat domain, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
def test_compact_answers_bit_identical(towns_graph, towns_hl, name):
    buf = io.BytesIO()
    save_hl_index(towns_hl, buf)
    buf.seek(0)
    with backend.forced(name):
        compact = load_hl_index(buf, towns_graph)
        assert compact.domain == "compact"
        assert compact.dist_encoding == ("dd", "dd")  # towns: float weights
        n = towns_graph.n
        for s, t in _pairs(n, 40, seed=11):
            assert compact.distance(s, t) == towns_hl.distance(s, t)
        targets = tuple(t for _, t in _pairs(n, 12, seed=3))
        sources = tuple(s for s, _ in _pairs(n, 5, seed=7))
        assert compact.one_to_many(sources[0], targets) == towns_hl.one_to_many(
            sources[0], targets
        )
        assert compact.distance_table(sources, targets) == towns_hl.distance_table(
            sources, targets
        )
        for s, t in _pairs(n, 10, seed=5):
            p, p2 = towns_hl.shortest_path(s, t), compact.shortest_path(s, t)
            assert (p2.nodes, p2.length) == (p.nodes, p.length)


def test_compact_results_stay_floats(towns_graph, towns_hl):
    """Integer-backed (i4) storage must never leak ints to callers."""
    g = grid_city(5, 5, seed=3)
    # integral weights force the i4 encoding
    b = GraphBuilder()
    for u in range(g.n):
        b.add_node(*g.coord(u))
    for u, v, _ in g.edges():
        b.add_edge(u, v, float(1 + (u + v) % 7))
    gi = b.build()
    hl = HubLabelIndex(gi)
    buf = io.BytesIO()
    save_hl_index(hl, buf)
    buf.seek(0)
    compact = load_hl_index(buf, gi)
    assert compact.dist_encoding == ("i4", "i4")
    d = compact.distance(0, gi.n - 1)
    assert type(d) is float and d == hl.distance(0, gi.n - 1)
    o2m = compact.one_to_many(0, (1, 2, 3))
    assert all(type(v) is float for v in o2m)
    table = compact.distance_table((0, 1), (2, 3))
    assert all(type(v) is float for row in table for v in row)


# ----------------------------------------------------------------------
# Round-trip determinism
# ----------------------------------------------------------------------
def test_save_load_save_idempotent(towns_graph, towns_hl):
    buf = io.BytesIO()
    save_hl_index(towns_hl, buf)
    blob = buf.getvalue()
    buf.seek(0)
    loaded = load_hl_index(buf, towns_graph)
    again = io.BytesIO()
    save_hl_index(loaded, again)
    assert again.getvalue() == blob


def test_flat_resave_of_compact_matches_original_flat(towns_graph, towns_hl):
    """Widening int32 columns back to the HL1 wire format is exact."""
    flat = io.BytesIO()
    save_hl_index(towns_hl, flat, compact=False)
    buf = io.BytesIO()
    save_hl_index(towns_hl, buf)
    buf.seek(0)
    compact = load_hl_index(buf, towns_graph)
    flat2 = io.BytesIO()
    save_hl_index(compact, flat2, compact=False)
    assert flat2.getvalue() == flat.getvalue()


def test_compact_bundle_round_trip(towns_graph, towns_hl):
    blob = bundle_bytes(towns_hl)
    g2, hl2 = load_bundle(blob)
    assert hl2.domain == "compact"
    buf = io.BytesIO()
    save_bundle(hl2, buf)
    assert buf.getvalue() == blob


# ----------------------------------------------------------------------
# The exactness guard, unit-level
# ----------------------------------------------------------------------
def test_guard_integral_dists_pick_i4():
    enc, payload = _encode_dists([0.0, 3.0, 2147483647.0], [-1, 0, 0])
    assert enc == _DIST_I4
    assert len(payload) == 4 * 3


def test_guard_non_integral_dists_fall_back_to_dd():
    enc, _ = _encode_dists([0.0, 2.5], [-1, 0])
    assert enc == _DIST_DD
    enc, _ = _encode_dists([2.0, 5.0, 5.5], [-1, 0, 1])
    assert enc == _DIST_DD


def test_guard_past_int32_boundary_is_not_i4():
    enc, _ = _encode_dists([float(2**31)], [-1])  # one past INT32_MAX
    assert enc != _DIST_I4


def test_guard_inexact_delta_falls_back_to_f8():
    # 1e16 + (3.0 - 1e16) == 4.0 != 3.0: the dd reconstruction would be
    # lossy, and the guard must catch it value by value.
    enc, payload = _encode_dists([1e16, 3.0], [-1, 0])
    assert enc == _DIST_F8
    assert len(payload) == 8 * 2


@pytest.mark.parametrize("name", BACKENDS)
def test_encode_side_rejects_parent_outside_slice(name):
    head = array("q", [0, 1])
    hub = array("q", [2])
    dist = array("d", [1.0])
    parent = array("q", [5])  # hub 5 is not in node 0's label slice
    with backend.forced(name), pytest.raises(ValueError, match="parent outside"):
        _encode_label_side(head, hub, dist, parent)


# ----------------------------------------------------------------------
# Malformed HL2 side streams: typed errors at load, on every backend
# ----------------------------------------------------------------------
def _framed(payload: bytes) -> bytes:
    return struct.pack("<q", len(payload)) + payload


def _dd(values=(0.0, 2.5), idx=b"\x00\x01\x00", size=None):
    size = len(values) if size is None else size
    return struct.pack("<q", size) + array("d", values).tobytes() + _framed(idx)


def _side(
    enc=_DIST_DD,
    count=3,
    lengths=b"\x02\x01",
    hubs=b"\x00\x00\x01",
    parents=b"\x00\x01\x00",
    dists=None,
):
    """One crafted HL2 direction of a 2-node graph.

    The defaults are valid: node 0 holds hubs 0 and 1 (hub 1's parent
    is hub 0), node 1 holds hub 1 alone; ``dd`` distances 0, 2.5, 0.
    """
    return (
        struct.pack("<Bq", enc, count)
        + _framed(lengths)
        + _framed(hubs)
        + _framed(parents)
        + (_dd() if dists is None else dists)
    )


def _hl2_file(side: bytes) -> bytes:
    """An HLIDX2 index with ``side`` as both directions, no middles."""
    return b"HLIDX2\n" + struct.pack("<q", 2) + side + side + struct.pack("<q", 0)


@pytest.fixture(scope="module")
def pair_graph():
    b = GraphBuilder()
    b.add_node(0.0, 0.0)
    b.add_node(1.0, 0.0)
    b.add_bidirectional_edge(0, 1, 2.5)
    return b.build()


_CYCLE = b"\x02\x01\x00"  # entry 0's parent is entry 1 and vice versa

#: Each crafted side must fail with BundleCorrupted, never IndexError,
#: OverflowError or a silently wrong column.
MALFORMED_SIDES = {
    "truncated_varint": dict(hubs=b"\x00\x00\x81"),
    "overlong_varint": dict(hubs=b"\x00\x00\x81\x80\x80\x80\x80\x00"),
    "varint_past_int32": dict(hubs=b"\x00\x00\xff\xff\xff\xff\x0f"),
    "hub_past_node_count": dict(hubs=b"\x00\x00\x05"),
    "parent_past_slice": dict(parents=b"\x00\x03\x00"),
    "parent_past_count": dict(parents=b"\x00\x09\x00"),
    "delta_index_out_of_range": dict(dists=_dd(idx=b"\x00\x02\x00")),
    "delta_dict_past_count": dict(dists=_dd(size=9)),
    "lengths_sum_mismatch": dict(lengths=b"\x02\x02"),
    "lengths_node_count_mismatch": dict(lengths=b"\x02\x01\x00"),
    "streams_count_mismatch": dict(count=4),
    "negative_count": dict(count=-1),
    "unknown_encoding": dict(enc=7),
    "root_not_own_node": dict(hubs=b"\x00\x00\x00"),
    "parent_cycle_dd": dict(parents=_CYCLE),
    "parent_cycle_i4": dict(
        enc=_DIST_I4, parents=_CYCLE, dists=array("i", [0, 2, 0]).tobytes()
    ),
}


@pytest.mark.parametrize("name", BACKENDS)
def test_crafted_side_decodes(pair_graph, name):
    with backend.forced(name):
        index = load_hl_index(_hl2_file(_side()), pair_graph)
    assert index.fwd_head.tolist() == [0, 2, 3]
    assert index.fwd_hub.tolist() == [0, 1, 1]
    assert index.fwd_parent.tolist() == [-1, 0, -1]
    assert index.fwd_dist.tolist() == [0.0, 2.5, 0.0]
    assert index.dist_encoding == ("dd", "dd")


@pytest.mark.parametrize("case", sorted(MALFORMED_SIDES))
@pytest.mark.parametrize("name", BACKENDS)
def test_malformed_side_raises_typed(pair_graph, name, case):
    blob = _hl2_file(_side(**MALFORMED_SIDES[case]))
    with backend.forced(name), pytest.raises(BundleCorrupted) as err:
        load_hl_index(blob, pair_graph)
    assert err.value.section == "HLIDX2"


# ----------------------------------------------------------------------
# The exactness guard, property-level (hypothesis-pinned)
# ----------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=guard_case())
def test_guard_never_changes_answers(case):
    """Whatever the weight class, the guard's choice is exact.

    The chosen encoding must match the guard's stated semantics (``i4``
    iff every stored distance is integral and below 2^31), the compact
    blob must round-trip byte-identically, and every query answer must
    be bit-identical to the flat index's — on both backends.
    """
    n, extras, weights = case
    g = weighted_chain_graph(n, extras, weights)
    hl = HubLabelIndex(g)

    buf = io.BytesIO()
    save_hl_index(hl, buf)
    blob = buf.getvalue()

    # guard semantics: i4 exactly when the flat columns allow it
    loaded = load_hl_index(io.BytesIO(blob), g)
    for side_col, enc_name in (
        (hl.fwd_dist, loaded.dist_encoding[0]),
        (hl.bwd_dist, loaded.dist_encoding[1]),
    ):
        i4_ok = all(
            0 <= d <= 0x7FFFFFFF and d == int(d) for d in side_col.tolist()
        )
        assert (enc_name == "i4") == i4_ok

    # byte-determinism
    again = io.BytesIO()
    save_hl_index(loaded, again)
    assert again.getvalue() == blob

    # answers never change, on either backend
    pairs = _pairs(n, 20, seed=n)
    targets = tuple(t for _, t in _pairs(n, 6, seed=2))
    for name in BACKENDS:
        with backend.forced(name):
            for s, t in pairs:
                assert loaded.distance(s, t) == hl.distance(s, t)
            assert loaded.one_to_many(0, targets) == hl.one_to_many(0, targets)
            assert loaded.distance_table(
                (0, n - 1), targets
            ) == hl.distance_table((0, n - 1), targets)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=guard_case())
def test_compact_blobs_byte_identical_across_backends(case):
    """The numpy codec passes write the pure loops' bytes exactly."""
    if not backend.HAS_NUMPY:
        return
    n, extras, weights = case
    blobs = {}
    for name in BACKENDS:
        with backend.forced(name):
            g = weighted_chain_graph(n, extras, weights)
            hl = HubLabelIndex(g)
            buf = io.BytesIO()
            save_hl_index(hl, buf)
            blobs[name] = buf.getvalue()
    assert blobs["numpy"] == blobs["pure"]


# ----------------------------------------------------------------------
# Observability: stats(), inspect_bundle, the CLI
# ----------------------------------------------------------------------
def test_stats_reports_footprint(towns_graph, towns_hl):
    flat = towns_hl.stats()
    assert flat["domain"] == "flat"
    assert flat["dist_encoding"] == ("f8", "f8")
    assert flat["entries"] > 0
    assert flat["bytes_per_entry"] > 24  # three 8-byte columns + heads
    assert set(flat["columns"]) == {
        "fwd_head",
        "fwd_hub",
        "fwd_dist",
        "fwd_parent",
        "bwd_head",
        "bwd_hub",
        "bwd_dist",
        "bwd_parent",
    }
    buf = io.BytesIO()
    save_hl_index(towns_hl, buf)
    buf.seek(0)
    compact = load_hl_index(buf, towns_graph)
    cstats = compact.stats()
    assert cstats["domain"] == "compact"
    assert cstats["entries"] == flat["entries"]
    assert cstats["bytes_per_entry"] < flat["bytes_per_entry"]
    # int32 hub columns are half the flat int64 ones
    assert (
        cstats["columns"]["fwd_hub"]["itemsize"]
        < flat["columns"]["fwd_hub"]["itemsize"]
    )


def test_inspect_reports_sections_and_ratio(towns_hl):
    """The hard footprint floor: towns label sections shrink >= 2.5x."""
    flat_secs = inspect_bundle(bundle_bytes(towns_hl, compact=False))
    comp_secs = inspect_bundle(bundle_bytes(towns_hl))
    assert [s["magic"] for s in flat_secs] == ["GCSR1", "HLIDX1", "BCRC1"]
    assert [s["magic"] for s in comp_secs] == ["GCSR1", "HLIDX2", "BCRC1"]
    flat_hl = next(s for s in flat_secs if s["magic"] == "HLIDX1")["detail"]
    comp_hl = next(s for s in comp_secs if s["magic"] == "HLIDX2")["detail"]
    assert flat_hl["entries"] == comp_hl["entries"]
    assert comp_hl["dist_encoding"] == ["dd", "dd"]
    ratio = flat_hl["label_bytes"] / comp_hl["label_bytes"]
    assert ratio >= 2.5, f"label sections shrank only {ratio:.2f}x"
    assert comp_hl["bytes_per_entry"] < flat_hl["bytes_per_entry"] / 2.5
    # offsets/sizes tile the file exactly (CRC trailer included)
    for secs, blob in (
        (flat_secs, bundle_bytes(towns_hl, compact=False)),
        (comp_secs, bundle_bytes(towns_hl)),
    ):
        assert secs[0]["offset"] == 0
        for prev, sec in zip(secs, secs[1:]):
            assert sec["offset"] == prev["offset"] + prev["bytes"]
        assert secs[-1]["offset"] + secs[-1]["bytes"] == len(blob)
        assert secs[-1]["detail"]["sections"] == len(secs) - 1


def test_inspect_rejects_garbage():
    with pytest.raises(ValueError, match="unknown section magic"):
        inspect_bundle(b"NOTABUNDLE")


def test_inspect_cli(tmp_path, towns_hl, capsys):
    path = str(tmp_path / "towns.bundle")
    save_bundle(towns_hl, path)
    assert serialize_main(["--inspect", path]) == 0
    out = capsys.readouterr().out
    assert "GCSR1" in out and "HLIDX2" in out
    assert "dd" in out


def test_inspect_cli_runs_as_module(tmp_path, towns_hl):
    import os
    import subprocess
    import sys

    import repro

    path = str(tmp_path / "towns.bundle")
    save_bundle(towns_hl, path)
    env = dict(os.environ)
    # the child process doesn't inherit pytest's pythonpath setting
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serialize", "--inspect", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "HLIDX2" in proc.stdout


def test_inspect_cli_rejects_garbage_file(tmp_path, capsys):
    path = tmp_path / "junk.bundle"
    path.write_bytes(b"this is not a bundle at all")
    assert serialize_main(["--inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not a valid bundle" in err
    assert "Traceback" not in err


def test_inspect_cli_rejects_truncated_bundle(tmp_path, towns_hl, capsys):
    path = tmp_path / "towns.bundle"
    save_bundle(towns_hl, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert serialize_main(["--inspect", str(path)]) == 2
    assert "not a valid bundle" in capsys.readouterr().err


def test_inspect_cli_rejects_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.bundle"
    path.write_bytes(b"")
    assert serialize_main(["--inspect", str(path)]) == 2
    assert "empty" in capsys.readouterr().err


def test_inspect_cli_missing_file(tmp_path, capsys):
    assert serialize_main(["--inspect", str(tmp_path / "nope.bundle")]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# The generic numpy view helper
# ----------------------------------------------------------------------
@pytest.mark.skipif(not backend.HAS_NUMPY, reason="needs numpy")
def test_np_view_generic():
    from array import array

    np = backend.np
    assert backend.np_view(array("i", [1, 2])).dtype == np.int32
    assert backend.np_view(array("q", [1, 2])).dtype == np.int64
    assert backend.np_view(array("d", [1.0])).dtype == np.float64
    arr = np.arange(3)
    assert backend.np_view(arr) is arr
    with pytest.raises(TypeError):
        backend.np_view(array("b", [1]))
