"""Store per-operation KV state as base + quantized residual.

An operation's attention state depends on what ran before it, so a naive
cache must either drop the prefix's influence (stateless) or store one dense
copy per request context (stateful).  The differential store keeps one
context-free base per operation plus one quantized residual per (prefix,
operation) pair: the prefix's influence in b-bit codes with one scale per
(layer, head), at the smallest width b whose reconstruction error stays
within sqrt(1 - 0.95) of that influence.

At this target each residual takes 4 bits per coordinate plus the scales,
so part one prints each residual at about an eighth of the bytes of a dense
float32 copy.  The larger win is structural: bases and residuals are shared
across every request that walks the same chain, while stateful state
duplicates per request.  Part two serves the same trace twenty times to show
exactly that."""

import json

import numpy as np

from opflow import CacheStore, KVOracle, OracleConfig, merge_workflows, parse_workflow
from opflow.kvstore import kv_file_nbytes


def build_chain_graph():
    ops = {f"OP_{i}": f"stage {i} of the nightly pipeline run" + " x" * i for i in range(5)}
    chain = list(ops)
    document = {
        "id": "WF_NIGHTLY",
        "name": "nightly pipeline",
        "description": "five stages, strictly ordered",
        "patterns": {"must": [], "should": []},
        "graph_structure": {
            "nodes": chain,
            "edges": [list(e) for e in zip(chain, chain[1:])],
        },
        "operations": {
            op: {"name": op.lower(), "instruction": text, "patterns": {"must": [], "should": []}}
            for op, text in ops.items()
        },
    }
    return merge_workflows([parse_workflow(json.dumps(document))]), chain


def frobenius(a, b) -> float:
    return float(np.sqrt(np.sum((a.states.astype(np.float64) - b.states) ** 2)))


def serve_once(store: CacheStore, chain: list[str]) -> None:
    path = ()
    for op in chain:
        if store.mode == "differential" and path:
            store.insert_residual(path, op)
        store.fetch(path, op)
        path = path + (op,)


def main() -> None:
    graph, chain = build_chain_graph()
    oracle = KVOracle(OracleConfig())

    print("one pass along the chain (energy target 0.95):")
    store = CacheStore(graph, "differential", oracle=oracle, energy_target=0.95)
    path = ()
    for op in chain:
        if path:
            store.insert_residual(path, op)
        kv, result = store.fetch(path, op)
        full = oracle.stateful_segment(store.prefix_tokens(path), store.op_tokens(op))
        base = oracle.base_segment(store.op_tokens(op), len(store.prefix_tokens(path)))
        err = frobenius(kv, full)
        influence = frobenius(full, base)
        bound = np.sqrt(1.0 - 0.95) * influence
        delta = store.residuals.get((path, op))
        kept = "base only (empty prefix -> residual is identically zero)" if not path else (
            f"{delta.width}-bit residual changes {delta.entries}/{full.states.size} entries "
            f"in {delta.nbytes()} B (dense copy {kv_file_nbytes(full)} B)"
        )
        print(
            f"  {op}: prefix {len(path)} ops -> {result.flag}; {kept}; "
            f"error {err:7.3f} <= bound {bound:7.3f} (prefix influence {influence:.1f})"
        )
        path = path + (op,)

    print()
    print("twenty requests replaying the same trace:")
    shared = {
        mode: CacheStore(graph, mode, oracle=oracle, energy_target=0.95)
        for mode in ("stateless", "differential")
    }
    stateful_total = 0
    per_request = None
    for _ in range(20):
        for mode_store in shared.values():
            serve_once(mode_store, chain)
        fresh = CacheStore(graph, "stateful", oracle=oracle)  # one live store per request
        serve_once(fresh, chain)
        per_request = fresh.memory_footprint().total_bytes
        stateful_total += per_request

    for mode, mode_store in shared.items():
        m = mode_store.memory_footprint()
        print(
            f"  {mode:>12}: {m.total_bytes:8d} bytes total "
            f"({m.n_bases} bases, {m.n_residuals} residuals — shared, does not grow)"
        )
    print(
        f"  {'stateful':>12}: {stateful_total:8d} bytes total "
        f"({per_request} per request x 20 live requests)"
    )


if __name__ == "__main__":
    main()
