"""Replay one ``repro breakdown`` CLI process, layer by layer.

The traced pass runs this in a fresh interpreter, as
``python cli_replay.py cold|cached ARGV...`` with ``PYTHONPATH=src``.
It takes the steps ``python -m repro breakdown ARGV`` takes on that
path -- the monolith with the naive engine when cold, the pipeline over
a filled cache with the batched engine when cached -- by calling each
layer's public function itself, and prints one JSON line: the spans on
the ``perf_counter`` clock (``CLOCK_MONOTONIC`` on Linux, so the parent
can line them up with the process it spawned), the rendered breakdown
and the work counts.

Only ``sys`` and ``time`` are imported before the first span, so every
import the CLI pays lands in the layer that pays it.
"""

import sys
import time


class CountingProvider:
    """A cost provider over an analyzer that counts the queries it answers."""

    def __init__(self, analyzer, total) -> None:
        self.analyzer = analyzer
        self.total = float(total)
        self.queries = 0

    def cost(self, targets):
        self.queries += 1
        return self.analyzer.cost(targets)

    def prefetch(self, target_sets):
        target_sets = list(target_sets)
        self.queries += len(target_sets)
        self.analyzer.prefetch(target_sets)


class Spans:
    """Spans as ``[name, start, end, parent name]``."""

    def __init__(self) -> None:
        self.records = []
        self._stack = []

    def __call__(self, name):
        self._name = name
        return self

    def __enter__(self):
        self._stack.append((self._name, time.perf_counter()))

    def __exit__(self, *exc):
        name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.records.append([name, start, time.perf_counter(), parent])


def replay(mode, argv):
    span = Spans()
    counts = {}
    with span("proc.import_cli"):
        with span("proc.import_numpy"):
            import numpy  # noqa: F401
        import repro.cli
    with span("registry.parser"):
        args = repro.cli.build_parser().parse_args(["breakdown", *argv])
        session = args.analysis.make_session(args)
    with span("workloads.trace"):
        from repro.workloads.registry import get_workload_object

        trace = get_workload_object(args.workload, args.scale,
                                    args.seed).trace()
    config = session.machine
    with span("artifacts.key"):
        from repro.pipeline.artifacts import graph_key, sim_key

        skey = sim_key(trace, config)
        if mode == "cached":
            gkey = graph_key(trace, config, breaks=True)
    cache = session.cache
    if mode == "cached":
        with span("artifacts.get_graph"):
            graph = cache.get_graph(gkey)
            meta = cache.get_json("meta", skey)
        total, engine = meta["cycles"], "batched"
        counts["artifacts.bytes"] = sum(
            _size(cache.path_for(kind, key))
            for kind, key in (("graph", gkey), ("meta", skey)))
    else:
        with span("uarch.simulate"):
            from repro.uarch.fastcore import simulate

            result = simulate(trace, config=config)
        with span("artifacts.put_sim"):
            # the CLI's cache is disabled here: both stores are no-ops
            cache.put_sim(skey, result)
            cache.put_json("cycles", skey, {"cycles": int(result.cycles)})
        with span("graph.build"):
            from repro.graph.builder import GraphBuilder

            graph = GraphBuilder(True).build(result)
        total, engine = result.cycles, "naive"
        counts["artifacts.bytes"] = 0
    with span("cost.breakdown"):
        from repro.core import interaction_breakdown
        from repro.core.categories import Category
        from repro.graph.cost import GraphCostAnalyzer

        provider = CountingProvider(GraphCostAnalyzer(graph, engine=engine),
                                    total)
        breakdown = interaction_breakdown(provider,
                                          focus=Category(args.focus),
                                          workload=args.workload)
    with span("core.render"):
        from repro.core import breakdown_to_json

        text = breakdown_to_json(breakdown)
    counts.update({"workloads.insts": len(trace.insts),
                   "uarch.cycles": int(total),
                   "graph.edges": len(graph.column_data("src")),
                   "cost.queries": provider.queries})
    return span.records, text, counts


def _size(path):
    import os

    return os.path.getsize(path)


if __name__ == "__main__":
    spans, text, counts = replay(sys.argv[1], sys.argv[2:])
    import json

    print(json.dumps({"spans": spans, "text": text, "counts": counts}))
