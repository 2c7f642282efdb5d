"""Assemble EXPERIMENTS.md from the archived harness panels."""

INTRO = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Section 6), regenerated
with this repository's harness on the scaled synthetic suite (see
the README's substitution policy).  Absolute numbers are
pure-Python on laptop-scale networks; the comparisons below therefore
focus on *shape*: who wins, by roughly what factor, and where behaviour
changes.  Raw panels live in `results/` and are reproducible with
`python results/run_all.py` (or per-panel via `python -m repro.bench ...`).

Environment: CPython 3.11, single core, no C extensions.
Workloads: paper-style `Q1..Q10` distance-stratified pairs
(`repro.datasets.workloads`); `Q1` (and sometimes `Q2`) is empty on the
scaled networks because the shortest band lies below the minimum edge
travel time — the harness reports only populated buckets.

## Summary of outcomes

| Experiment | Paper's finding | Measured here | Verdict |
|---|---|---|---|
| Table 1 | AH: O(hn) space, O(h log h) distance query | entries/n flat at ~7.3-7.9 across a 5x ladder; long-range query time roughly flat in n | shape reproduced |
| Table 2 | ten-network ladder, m/n ≈ 2.4 | same ladder shape at 1/80 scale, m/n ≈ 3.6 | reproduced (scaled) |
| Figure 3 | arterial dimension small (max 97, q99 <= 60) at every resolution and size | max 38 across all datasets/resolutions; means <= 12; no growth with n | reproduced |
| Figure 8 | AH fastest on distance queries; >50% faster than CH/SILC on Q8-Q10; Dijkstra worst | AH beats CH by 27-40% on Q8-Q10 (Q10: 16 vs 27, 24 vs 33, 39 vs 62, 27 vs 46 us across the ladder); Dijkstra loses 15-90x | reproduced for AH-vs-CH and AH-vs-Dijkstra; see deviation (1) for SILC |
| Figure 9 | same ordering for path queries; AH/CH pay extra for unpacking, SILC/Dijkstra identical to Fig. 8 | path > distance for AH/CH (unpacking), SILC/Dijkstra unchanged; AH ~30x faster than Dijkstra on Q10 | reproduced |
| Figure 10a | SILC space super-linear and huge; AH linear & moderate; CH smallest | SILC n^1.18 and ~9x AH; AH n^1.03; CH smallest (n^1.01) | reproduced |
| Figure 10b | SILC prep super-linear (>1 week at 435k); AH ~linear in practice; CH minimal | SILC n^2.18; AH n^1.34 (see deviation 2); CH n^0.92 | reproduced (AH mildly super-linear, see deviation 2) |

### Deviations and their causes

1. **SILC is the fastest engine on our small networks** (it was only
   fastest on the paper's smallest dataset, DE).  At 600-3,000 nodes a
   SILC query is a handful of quadtree descents with tiny constants,
   while its super-linear space/preprocessing — the reason the paper
   drops it beyond 500k nodes — has not had room to bite.  The
   crossover the paper observed at larger n is exactly what Figure 10's
   measured growth exponents (space n^1.18, time n^2.18 vs AH's n^1.03)
   extrapolate to.
2. **AH preprocessing measures n^1.34, not the paper's observed ~linear.**
   Our level assignment is the paper's O(hn^2) algorithm implemented in
   pure Python on networks 1,000x smaller; at this scale the working-
   graph reduction (alive-set shrinkage) has not reached its asymptotic
   regime, so region sizes grow with n.  The shape-relevant claims —
   AH builds in minutes where SILC's trend points to hours, and the
   *index* stays linear — hold.
3. **AH trails CH on short/mid-range queries** (the paper wins
   everywhere).  Two Python-specific constants dominate there: the
   per-relaxation proximity test and the fatter low levels produced by
   tie-inclusive marking (`repro.core.hierarchy`).  On the long-range buckets —
   the regime the paper headlines — AH's elevating edges skip those
   levels entirely and the paper's ordering is restored.  The ablation
   panel quantifies this: at 1k nodes the proximity check costs more
   than it prunes (28.8 us without vs 43.4 us with), while elevating
   edges repay their index overhead (27.1 us).  Both effects would
   invert at the paper's scales, where the pruned search space, not the
   per-edge test, dominates.
4. **Q1 (and on some datasets Q2) buckets are empty** — at 1/80 scale
   the shortest dyadic band falls below one edge's travel time.  The
   harness reports populated buckets only.

## Correctness evidence (beyond timing)

* 390+ tests green, including hypothesis property tests: every engine
  (AH in all constraint configurations, FC, CH, SILC, TNR, ALT, A*,
  bidirectional) equals Dijkstra on randomized road networks; every
  reported path revalidates edge-by-edge against the graph.
* A 36-network stress sweep (mixed towns/grid/geometric topologies,
  one-way streets, pruning; 7 engine configs x 30 queries each) found
  zero mismatches.
* The paper's lemmas hold executably on the built indexes: Lemma 3's
  covering property (no sampled violation in 200+ far pairs per
  network) and Lemma 4's density bound (`repro.core.lemmas`).
* The Figure 1/2/4 running example reproduces the paper's narrative
  exactly (arterial edges <v6,v10> and <v11,v7>, border-node sets,
  dist(v1,v10)=4, the v9->v10 route through v6).

## Archived panels

The sections below are the verbatim harness outputs.
"""

SECTIONS = [
    ("Table 1 — asymptotic bounds and measured consequences", "table1"),
    ("Table 2 — dataset suite", "table2"),
    ("Figure 3 — arterial dimension (exact mode, small datasets)", "fig3_exact"),
    ("Figure 3 — arterial dimension (reduced mode, larger datasets)", "fig3_reduced"),
    ("Figure 8 — distance query time vs Q-bucket", "fig8"),
    ("Figure 9 — shortest path query time vs Q-bucket", "fig9"),
    ("Figure 10 — index space and preprocessing time vs n", "fig10"),
    ("Ablations — AH design choices (extension)", "ablation"),
]

OUTRO = """
## Reproduction instructions

```bash
pip install -e . --no-build-isolation   # or: python setup.py develop
pytest tests/                           # full correctness suite
pytest benchmarks/ --benchmark-only     # timed suites + shape assertions
python results/run_all.py               # regenerate every panel above
```
"""

parts = [INTRO]
for title, name in SECTIONS:
    with open(f"results/{name}.txt") as fh:
        body = fh.read().rstrip()
    parts.append(f"### {title}\n\n```text\n{body}\n```\n")
parts.append(OUTRO)
with open("EXPERIMENTS.md", "w") as fh:
    fh.write("\n".join(parts))
print("EXPERIMENTS.md written")
