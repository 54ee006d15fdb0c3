"""Child processes of the benchmark; `greenpremium` must be on PYTHONPATH.

    child.py setup WORKLOAD SEED WORKDIR TRACE
        A cold start: import greenpremium.cli, then the workload's set-up
        load. Prints one JSON object: the import time in ms and, with
        TRACE=1, the spans recorded.
    child.py cli SPANS_FILE ARGS...
        Runs `greenpremium ARGS...` with every layer traced and writes the
        spans to SPANS_FILE; stdout, stderr and the exit code are the CLI's.

The library is imported before any module of the benchmark, so that the
import time measured is that of a fresh interpreter.
"""

import sys
import time

_t0 = time.perf_counter()
import greenpremium.cli  # noqa: E402
_t1 = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402


def _tracer() -> Tracer:
    tracer = Tracer()
    tracer.spans.append([None, "cli.import", _t0, _t1, -1, None])
    tracer.install()
    return tracer


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from workloads import WORKLOADS
        name, seed, workdir, traced = rest
        tracer = _tracer() if traced == "1" else None
        WORKLOADS[name](int(seed), Path(workdir)).load()
        out = {"import_ms": (_t1 - _t0) * 1e3}
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.dump()
        print(json.dumps(out))
        return 0
    if mode == "cli":
        tracer = _tracer()
        try:
            return greenpremium.cli.run(rest[1:])
        finally:
            tracer.uninstall()
            Path(rest[0]).write_text(json.dumps(tracer.dump()))
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
