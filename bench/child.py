"""One benchmark sample: import mlsm2d, then one timed call into `mlsm2d.cli.main`.

    python3 bench/child.py RESULT_JSON TRACE [CLI_ARGS...]

Writes RESULT_JSON with `setup_s` (package import time), `peak_rss_mb`
(`ru_maxrss` of this process), `cpu_s` (its user + system time) and, when CLI_ARGS are given, `rc` and
`wall_s` (from the call into `cli.main` until it returns, every output
file written). With TRACE=1 the pipeline is wrapped by `spans.Tracer` and
the spans go into the result too, under the run id `run`. Without CLI_ARGS the process only
measures the import.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import mlsm2d  # noqa: F401
    import mlsm2d.cases  # noqa: F401
    import mlsm2d.cli
    import mlsm2d.io  # noqa: F401

    record = {"setup_s": time.perf_counter() - t0}
    if argv:
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        try:
            rc = mlsm2d.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        record["wall_s"] = time.perf_counter() - t1
        record["rc"] = rc
        if tracer is not None:
            record["run"] = Path(result_path).stem
            record["spans"] = tracer.spans
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    Path(result_path).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
