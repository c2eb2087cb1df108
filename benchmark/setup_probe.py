"""Set-up probe: time from a fresh interpreter until per-pair work could start.

Imports cocite, ingests the corpus and digests it with the settings of
`cocite run`, then prints the monotonic clock and leaves without interpreter
teardown. The parent subtracts its own spawn time from the printed value.

    python3 benchmark/setup_probe.py PAPERS MENTORSHIPS
"""

import os
import sys
import time


def main() -> None:
    import cocite
    from cocite.pipeline import PipelineConfig, corpus_digest

    papers, mentorships = sys.argv[1:3]
    cocite.ingest_corpus(papers, mentorships, PipelineConfig().ingest_config())
    corpus_digest(papers, mentorships)
    print(repr(time.perf_counter()), flush=True)
    os._exit(0)


if __name__ == "__main__":
    main()
