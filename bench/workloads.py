"""Seeded instance generator for the benchmark workloads.

An instance is plain JSON data: a graph with an omission bound, or a
family JSON dict, plus the pipeline parameters.  The program under test
only ever sees these inputs; every object it builds, it builds inside the
timed region.

Each workload is a fixed ladder plus seeded picks from a pool.  The pool
is generated once from ``POOL_SEED``, so every instance any seed can
produce has an entry in ``expected.json``; the workload seed chooses which
pool members run and in what order.  Pools are stratified (a fixed number
of picks per stratum of similar size), so the work in a batch, and hence
its timing, stays close across seeds while the inputs differ.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations
from math import comb
from typing import Callable

POOL_SEED = "omlab-bench-pool-v1"


# A pool member is built only when a seed picks it: (instance id, builder).
Pending = tuple[str, Callable[[], dict]]


# Why each workload was chosen is recorded in BENCHMARK.json.
@dataclass(frozen=True)
class Workload:
    fixed: Callable[[], list[dict]]
    strata: Callable[[], list[tuple[int, list[Pending]]]]  # (picks per seed, pool)


# ---- graphs ---------------------------------------------------------------------

def complete_edges(n: int) -> list[list[int]]:
    return [[u, v] for u, v in combinations(range(n), 2)]


def cycle_edges(n: int) -> list[list[int]]:
    return [sorted((i, (i + 1) % n)) for i in range(n)]


def path_edges(n: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(n - 1)]


def hypercube_edges(dim: int) -> list[list[int]]:
    return [[u, u ^ 1 << b] for u in range(1 << dim) for b in range(dim) if u < u ^ 1 << b]


# Vertex connectivity 1, arc connectivity 2: the two triangles share node 0.
BOWTIE_EDGES = [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]]


def graph(name: str) -> dict:
    """Named symmetric graph: K<n>, C<n>, P<n>, Q<dimension>, "bowtie", or
    C<n>+<k>, the cycle C<n> with every chord of length k added."""
    if name == "bowtie":
        return {"name": name, "n": 5, "edges": BOWTIE_EDGES}
    if "+" in name:
        n, k = map(int, name[1:].split("+"))
        chords = {tuple(sorted((i, (i + k) % n))) for i in range(n)}
        return {"name": name, "n": n, "edges": cycle_edges(n) + [list(e) for e in sorted(chords)]}
    kind, n = name[0], int(name[1:])
    edges = {
        "K": complete_edges, "C": cycle_edges, "P": path_edges, "Q": hypercube_edges,
    }[kind](n)
    return {"name": name, "n": 1 << n if kind == "Q" else n, "edges": edges}


def random_connected_graph(rng: random.Random, n: int, m: int) -> dict:
    """Uniform spanning path order plus random extra edges, ``m`` edges in all."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i - 1], order[i]))) for i in range(1, n)}
    others = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(others, m - len(edges)))
    return {"name": f"R{n}.{m}", "n": n, "edges": [list(e) for e in sorted(edges)]}


def arcs_of(g: dict) -> list[tuple[int, int]]:
    return sorted({(u, v) for a, b in g["edges"] for u, v in ((a, b), (b, a))})


# ---- families as JSON dicts -------------------------------------------------------

def family_dict(n: int, arcs: list[tuple[int, int]], events: list[list[int]]) -> dict:
    """Family JSON over ``arcs``; each event lists the indices of its arcs."""
    label = [f"v{u}" for u in range(n)]
    pairs = [[label[t], label[h]] for t, h in arcs]
    return {
        "graph": {"nodes": label, "arcs": pairs},
        "events": [{"name": f"E{i}", "arcs": [pairs[a] for a in ev]} for i, ev in enumerate(events)],
    }


def bounded_subset(rng: random.Random, g: dict, f: int, metric: str, size: int) -> dict:
    """``size`` distinct events drawn uniformly from the bounded-omission family,
    redrawn until no node is a source of them all (not broadcastable)."""
    n, arcs = g["n"], arcs_of(g)
    if metric == "global":
        groups = [list(range(len(arcs)))]
    else:
        end = 0 if metric == "send" else 1
        groups = [[i for i, a in enumerate(arcs) if a[end] == u] for u in range(n)]
    # Omitting k arcs of a group is chosen in proportion to the C(len, k) ways.
    sizes = [list(range(min(f, len(grp)) + 1)) for grp in groups]
    weights = [list(accumulate(comb(len(grp), k) for k in ks)) for grp, ks in zip(groups, sizes)]
    while True:
        seen: set[frozenset] = set()
        kept = []
        while len(kept) < size:
            omitted = frozenset(
                i
                for grp, ks, cum in zip(groups, sizes, weights)
                for i in rng.sample(grp, rng.choices(ks, cum_weights=cum)[0])
            )
            if omitted not in seen:
                seen.add(omitted)
                kept.append([i for i in range(len(arcs)) if i not in omitted])
        common = (1 << n) - 1
        for ev in kept:
            common &= sources_mask(n, [arcs[i] for i in ev], common)
            if not common:
                return family_dict(n, arcs, kept)


def sources_mask(n: int, arcs: list[tuple[int, int]], candidates: int) -> int:
    """Bitmask of the ``candidates`` from which every node is reachable along ``arcs``."""
    out = [0] * n
    for t, h in arcs:
        out[t] |= 1 << h
    found = 0
    for u in range(n):
        if candidates >> u & 1:
            seen = frontier = 1 << u
            while frontier:
                reached = 0
                for v in range(n):
                    if frontier >> v & 1:
                        reached |= out[v]
                frontier = reached & ~seen
                seen |= frontier
            if seen == (1 << n) - 1:
                found |= 1 << u
    return found


def random_family(
    rng: random.Random, n: int, k: int, p_arc: float, p_keep: float, kind: str = "any"
) -> dict:
    """``k`` distinct random events over a random strongly connected digraph.

    ``kind`` "star" adds node 0's out-arcs to every event, so node 0 informs
    everyone in one round and consensus takes exactly one round.  "no-source"
    makes the first event deaf at two nodes, so no node reaches everyone in
    it and consensus is unsolvable at every horizon.
    """
    full = (1 << n) - 1
    while True:
        arcs_sorted = sorted(
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p_arc
        )
        if sources_mask(n, arcs_sorted, full) == full:
            break
    seen: set[frozenset] = set()
    events = []
    while len(events) < k:
        ev = {a for a in arcs_sorted if rng.random() < p_keep}
        if kind == "star":
            ev |= {(0, v) for v in range(1, n)}
        elif kind == "no-source" and not events:
            deaf = rng.sample(range(n), 2)
            ev = {a for a in ev if a[1] not in deaf}
        if frozenset(ev) not in seen:
            seen.add(frozenset(ev))
            events.append(sorted(ev))
    index = {a: i for i, a in enumerate(arcs_sorted)}
    return family_dict(n, arcs_sorted, [[index[a] for a in ev] for ev in events])


def _rng(instance_id: str) -> random.Random:
    return random.Random(f"{POOL_SEED}:{instance_id}")


# ---- convex-ladder ------------------------------------------------------------------

CONVEX_LADDER = [
    ("K3", 1, "global"), ("K3", 2, "global"), ("K3", 1, "send"), ("K3", 1, "recv"),
    ("K4", 1, "global"), ("K4", 2, "global"), ("K4", 3, "global"),
    ("K4", 1, "send"), ("K4", 1, "recv"), ("K4", 2, "send"), ("K4", 3, "recv"),
    ("K5", 1, "global"), ("K5", 2, "global"), ("K5", 3, "global"),
    ("K5", 1, "send"), ("K5", 1, "recv"),
    ("K6", 2, "global"), ("K6", 3, "global"),
    ("C4", 1, "global"), ("C4", 2, "global"), ("C5", 1, "global"),
    ("C5", 1, "recv"), ("C6", 1, "global"), ("C6", 2, "send"), ("C6", 2, "recv"),
    ("C8", 1, "global"), ("C8", 1, "send"), ("C8", 1, "recv"), ("C10", 1, "global"),
    ("P4", 1, "global"), ("P6", 0, "global"), ("P6", 1, "global"), ("P6", 1, "send"),
    ("Q2", 1, "global"), ("Q3", 1, "global"), ("Q3", 2, "global"),
    ("Q4", 1, "global"),
    ("C8+2", 3, "global"), ("C10+3", 2, "global"), ("C12+2", 2, "global"), ("C12+3", 2, "global"),
    ("bowtie", 1, "global"), ("bowtie", 2, "global"),
    ("bowtie", 1, "send"), ("bowtie", 2, "recv"),
]


def bounded_instance(iid: str, g: dict, f: int, metric: str) -> dict:
    return {"id": iid, "graph": g, "f": f, "metric": metric}


def convex_fixed() -> list[dict]:
    return [
        bounded_instance(f"convex-ladder/{name}-{metric}-f{f}", graph(name), f, metric)
        for name, f, metric in CONVEX_LADDER
    ]


# (nodes, edges, omission bound, metric) per stratum; 8 pool graphs each.
CONVEX_STRATA = [
    (6, 9, 1, "global"), (7, 11, 2, "global"), (8, 13, 1, "global"),
    (9, 15, 2, "global"), (6, 8, 1, "recv"),
]


def convex_strata() -> list[tuple[int, list[Pending]]]:
    def build(iid: str, n: int, m: int, f: int, metric: str) -> dict:
        return bounded_instance(iid, random_connected_graph(_rng(iid), n, m), f, metric)

    strata = []
    for n, m, f, metric in CONVEX_STRATA:
        ids = [f"convex-ladder/R{n}.{m}-{metric}-f{f}-{j}" for j in range(8)]
        strata.append((2, [(i, partial(build, i, n, m, f, metric)) for i in ids]))
    return strata


# ---- partition-mix -----------------------------------------------------------------

# Proper random subsets of bounded families: non-convex, not broadcastable.
# The partition's cost varies up to twofold between draws of one kind, so
# every seed gets the same SUBSETS_PER_KIND draws (in its own order) and the
# seed's choice falls on the small families, which cost little.
SUBSET_KINDS = [
    ("K4", 4, "global", 600), ("K5", 4, "global", 2000), ("Q3", 4, "global", 2000),
    ("C6", 6, "global", 1500), ("K5", 2, "recv", 2000),
]
SUBSETS_PER_KIND = 2

# (nodes, events, arc probability, keep probability) per stratum of small families.
SMALL_STRATA = [(3, 4, 0.9, 0.7), (4, 8, 0.8, 0.72), (5, 12, 0.7, 0.8), (6, 16, 0.6, 0.85)]


def partition_fixed() -> list[dict]:
    out = []
    for name, f, metric, size in SUBSET_KINDS:
        for j in range(SUBSETS_PER_KIND):
            iid = f"partition-mix/{name}-{metric}-f{f}-subset{size}-{j}"
            out.append({"id": iid, "family": bounded_subset(_rng(iid), graph(name), f, metric, size)})
    return out


def partition_strata() -> list[tuple[int, list[Pending]]]:
    def small(iid: str, *params) -> dict:
        return {"id": iid, "family": random_family(_rng(iid), *params)}

    strata = []
    for params in SMALL_STRATA:
        ids = [f"partition-mix/small-n{params[0]}-k{params[1]}-{j}" for j in range(40)]
        strata.append((20, [(i, partial(small, i, *params)) for i in ids]))
    return strata


# ---- oracle-small ----------------------------------------------------------------------

# (graph, bound, horizon): every horizon keeps 2^n * k^h within the default budget,
# and each search below a second, so that a run repeats every instance often.
ORACLE_LADDER = [
    ("K3", 1, 6), ("K3", 2, 2), ("P3", 1, 4), ("K4", 1, 3), ("K4", 2, 1), ("C4", 1, 3),
    ("C5", 1, 2),
]
BUNDLED = ("reliable-2node", "O1-2node", "H-2node", "fig12")
BUNDLED_HORIZON = 4

# (kind, nodes, events, horizon, picks, pool size) per stratum of random
# families.  The "star" and "no-source" kinds have a known answer and a cost
# fixed by their size; the mixed kind stays at a short horizon, so whatever
# its answer, the seed moves the batch's timings little.
ORACLE_STRATA = [
    ("star", 3, 4, 3, 7, 20), ("no-source", 3, 4, 3, 6, 20), ("any", 3, 3, 1, 12, 40),
]
KNOWN_ROUNDS = {"star": 1, "no-source": None}


def oracle_fixed() -> list[dict]:
    from omlab.bundled import load_family
    from omlab.events import family_to_json_dict

    out = [
        {"id": f"oracle-small/bundled-{name}", "family": family_to_json_dict(load_family(name)),
         "horizon": BUNDLED_HORIZON}
        for name in BUNDLED
    ]
    for name, f, h in ORACLE_LADDER:
        inst = bounded_instance(f"oracle-small/{name}-global-f{f}-h{h}", graph(name), f, "global")
        out.append({**inst, "horizon": h})
    return out


def oracle_strata() -> list[tuple[int, list[Pending]]]:
    def build(iid: str, kind: str, n: int, k: int, h: int) -> dict:
        inst = {"id": iid, "family": random_family(_rng(iid), n, k, 1.0, 0.6, kind), "horizon": h}
        if kind in KNOWN_ROUNDS:
            inst["known_oracle_rounds"] = KNOWN_ROUNDS[kind]
        return inst

    strata = []
    for kind, n, k, h, picks, pool_size in ORACLE_STRATA:
        ids = [f"oracle-small/{kind}-n{n}-k{k}-{j}" for j in range(pool_size)]
        strata.append((picks, [(i, partial(build, i, kind, n, k, h)) for i in ids]))
    return strata


WORKLOADS: dict[str, Workload] = {
    "convex-ladder": Workload(convex_fixed, convex_strata),
    "partition-mix": Workload(partition_fixed, partition_strata),
    "oracle-small": Workload(oracle_fixed, oracle_strata),
}


def instances(workload: str, seed: int) -> list[dict]:
    """The instance list of one run: the ladder plus seeded pool picks, shuffled."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    chosen = spec.fixed()
    for picks, pool in spec.strata():
        chosen.extend(build() for _iid, build in rng.sample(pool, picks))
    rng.shuffle(chosen)
    return chosen


def every_instance(workload: str) -> list[dict]:
    """Every instance any seed can produce, in a fixed order."""
    spec = WORKLOADS[workload]
    return spec.fixed() + [build() for _picks, pool in spec.strata() for _iid, build in pool]
