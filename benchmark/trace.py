"""Traced `cocite run`: spans around the public functions the pipeline calls.

Each wrapped function is replaced in the namespace of the module that calls
it (`cocite.pipeline` or `cocite.profiles`), so the program itself is not
edited. A span records its layer name, start, end, parent span and process;
some layers also record counts taken from the returned value.

Pool workers are forked from this process and inherit the wrappers and the
open span stack, so their spans hang under the pair-stage span. A worker
appends each finished top-level span to `SPANS.<pid>` right away, because
workers leave without running exit handlers. The main process writes
`SPANS` as one JSON object when the run ends.

    python3 benchmark/trace.py SPANS -- <arguments of `cocite run`>
"""

from __future__ import annotations

import json
import os
import sys
import time

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

# (calling module, function, layer)
WRAPPED = (
    ("pipeline", "ingest_corpus", "corpus.ingest"),
    ("pipeline", "corpus_digest", "pipeline.digest"),
    ("pipeline", "build_profiles", "pipeline.pair_stage"),
    ("pipeline", "build_pair_profile", "profiles.pair"),
    ("pipeline", "cohort_outputs", "pipeline.cohort"),
    ("pipeline", "equal_count_bins", "stats.fit"),
    ("pipeline", "fit_quadratic", "stats.fit"),
    ("pipeline", "fit_model_ladder", "stats.fit"),
    ("pipeline", "file_digest", "pipeline.manifest"),
    ("profiles", "build_pair_graph", "pairgraph.build"),
    ("profiles", "detect_topics", "community.detect"),
    ("profiles", "classify_topics", "topics.classify"),
    ("profiles", "classify_strategy", "topics.classify"),
    ("profiles", "allocate_impact", "impact.allocate"),
    ("profiles", "average_distance", "distance.average"),
    ("profiles", "typed_contributions", "career.series"),
    ("profiles", "build_career_series", "career.series"),
    ("profiles", "decade_type_ratios", "career.series"),
    ("profiles", "author_citation_total", "topics.citations"),
)


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


COUNTS = {
    "corpus.ingest": lambda r: {"papers": r.index.n_papers, "rss_mb": rss_mb()},
    "pipeline.pair_stage": lambda r: {"cache_hits": r.cache_hits, "cache_misses": r.cache_misses},
    "pairgraph.build": lambda g: {"nodes": g.n_nodes, "edges": g.n_edges},
    "community.detect": lambda a: {"topics": a.n_topics},
    "impact.allocate": lambda a: {"pool_papers": sum(len(t.pool) for t in a.topics.values())},
    "distance.average": lambda d: {"node_pairs": d.n_pairs},
}


class Tracer:
    def __init__(self, path: str):
        self.path = path
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.next_id = 0
        self.worker_depth: int | None = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self.worker_depth = len(self.stack)

    def wrap(self, module, name: str, layer: str) -> None:
        fn = getattr(module, name)
        count = COUNTS.get(layer)

        def traced(*args, **kwargs):
            span_id = f"{os.getpid()}.{self.next_id}"
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            span = {"id": span_id, "parent": parent, "name": layer, "pid": os.getpid(), "start": start, "end": end}
            if count is not None:
                span["counts"] = count(result)
            self.spans.append(span)
            if self.worker_depth == len(self.stack):
                with open(f"{self.path}.{os.getpid()}", "a", encoding="utf-8") as fh:
                    fh.writelines(json.dumps(s) + "\n" for s in self.spans)
                self.spans = []
            return result

        setattr(module, name, traced)


def main() -> int:
    path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    start = time.perf_counter()
    import cocite.cli
    from cocite import pipeline, profiles

    import_s = time.perf_counter() - start
    tracer = Tracer(path)
    modules = {"pipeline": pipeline, "profiles": profiles}
    for module, name, layer in WRAPPED:
        tracer.wrap(modules[module], name, layer)
    code = cocite.cli.main(["run", *argv])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
