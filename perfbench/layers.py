"""Per-layer metrics derived from a traced run.

Counts and times are per round: every round runs the same operations, so a
count marked exact repeats exactly between runs of the same seed whatever
their length. A layer that a workload does not exercise reads 0.
"""

from __future__ import annotations

# name: (unit, better, exact). README.md says which end-to-end metric each
# should move, on which workload.
PER_LAYER = {
    "search.nodes": ("count", "lower", True),
    "search.leaves": ("count", "lower", True),
    "search.nodes_per_s": ("1/s", "higher", False),
    "pool.speedup": ("ratio", "higher", False),
    "pool.utilization": ("ratio", "higher", False),
    "search.enumerate_s": ("s", "lower", False),
    "search.enumerate_visited": ("count", "lower", True),
    "search.por2p_draws": ("count", "lower", True),
    "search.por2p_accept_ratio": ("ratio", "higher", False),
    "search.por2p_s": ("s", "lower", False),
    "search.lemma3n_s": ("s", "lower", False),
    "sequences.constructs": ("count", "lower", True),
    "sequences.construct_s": ("s", "lower", False),
    "groups.contains_calls": ("count", "lower", True),
    "groups.arith_calls": ("count", "lower", True),
    "bitdp.folds": ("count", "lower", True),
    "bitdp.fold_s": ("s", "lower", False),
    "bitdp.pack_builds": ("count", "lower", True),
    "engine.find_calls": ("count", "lower", True),
    "engine.find_s": ("s", "lower", False),
    "engine.count_calls": ("count", "lower", True),
    "engine.count_s": ("s", "lower", False),
    "engine.has_calls": ("count", "lower", True),
    "engine.has_s": ("s", "lower", False),
    "extractors.calls": ("count", "lower", True),
    "extractors.self_s": ("s", "lower", False),
    "constructions.s": ("s", "lower", False),
    "cli.self_s": ("s", "lower", False),
    "trace.overhead": ("ratio", "lower", False),
}

EXACT = [name for name, (_, _, exact) in PER_LAYER.items() if exact]


def per_layer_metrics(tracer, outcome, rounds: int, workers: int, pack_builds: int) -> dict:
    counters, calls, self_s, total_s = tracer.counters, tracer.calls, tracer.self_s, tracer.total_s

    def per_round(x):
        return x // rounds if isinstance(x, int) and x % rounds == 0 else x / rounds

    untraced_wall = sum(outcome.medians("untraced").values())
    untraced_cpu = sum(outcome.medians("untraced", "cpu").values())
    traced_wall = sum(outcome.medians("traced").values())
    serial_wall = sum(outcome.medians("serial").values())
    draws = counters["search.por2p_draws"]
    values = {
        "search.nodes": per_round(counters["search.nodes"]),
        "search.leaves": per_round(counters["search.leaves"]),
        "search.nodes_per_s": per_round(counters["search.nodes"]) / untraced_wall,
        "pool.speedup": serial_wall / untraced_wall if serial_wall else 0,
        "pool.utilization": untraced_cpu / (workers * untraced_wall),
        "search.enumerate_s": per_round(self_s["search.enumerate"]),
        "search.enumerate_visited": per_round(counters["search.enumerate_visited"]),
        "search.por2p_draws": per_round(draws),
        "search.por2p_accept_ratio": counters["search.por2p_accepted"] / draws if draws else 0,
        "search.por2p_s": per_round(self_s["search.por2p"]),
        "search.lemma3n_s": per_round(self_s["search.lemma3n"]),
        "sequences.constructs": per_round(calls["sequences.construct"]),
        "sequences.construct_s": per_round(self_s["sequences.construct"]),
        "groups.contains_calls": per_round(counters["groups.contains"]),
        "groups.arith_calls": per_round(counters["groups.arith"]),
        "bitdp.folds": per_round(calls["bitdp.fold"]),
        "bitdp.fold_s": per_round(total_s["bitdp.fold"]),
        "bitdp.pack_builds": pack_builds,
        "engine.find_calls": per_round(calls["engine.find"]),
        "engine.find_s": per_round(self_s["engine.find"]),
        "engine.count_calls": per_round(calls["engine.count"]),
        "engine.count_s": per_round(self_s["engine.count"]),
        "engine.has_calls": per_round(calls["engine.has"]),
        "engine.has_s": per_round(self_s["engine.has"]),
        "extractors.calls": per_round(tracer.entries["extractors"]),
        "extractors.self_s": per_round(self_s["extractors"]),
        "constructions.s": per_round(self_s["constructions"]),
        "cli.self_s": per_round(self_s["cli"]),
        "trace.overhead": traced_wall / untraced_wall,
    }
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
