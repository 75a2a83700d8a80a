"""One benchmark job in a fresh process.

    python3 worker.py [--spans FILE --job ID] cli ARG...
    python3 worker.py [--spans FILE --job ID] sweep D_MAX N_MAX

``cli`` runs ``dynlab.cli.main(ARGS)``; ``sweep`` calls the public
``dynlab.equivalence_sweep`` (the CLI does not expose it) and prints its
result as JSON.  With ``--spans`` the dynlab layers are wrapped first (see
``tracing.py``), stdout is captured so its size can be counted, and the spans
are written to FILE when the job ends -- also when it is stopped with SIGTERM
at the per-job limit, in which case the open spans end at the stop.
"""

from __future__ import annotations

import io
import json
import signal
import sys
import time


class Stopped(BaseException):
    """Raised by the SIGTERM handler; BaseException so dynlab's own
    ``except`` clauses cannot swallow it."""


def _run(mode: str, rest: list[str]) -> int:
    import dynlab.cli

    if mode == "cli":
        try:
            return dynlab.cli.main(rest)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1
    d_max, n_max = (int(v) for v in rest)
    sys.stdout.write(json.dumps(dynlab.equivalence_sweep(d_max, n_max)) + "\n")
    return 0


def main(argv: list[str]) -> int:
    if argv[0] != "--spans":
        return _run(argv[0], argv[1:])
    spans_path, job, mode, rest = argv[1], int(argv[3]), argv[4], argv[5:]

    t0 = time.perf_counter()
    import dynlab.cli  # noqa: F401  (timed: the import is the measured layer)
    import_s = time.perf_counter() - t0

    import tracing

    rec = tracing.SpanRecorder(job)
    inst = tracing.Installation(rec).install()

    def stop(signum, frame):
        raise Stopped

    signal.signal(signal.SIGTERM, stop)
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    stopped = False
    code = 1
    try:
        code = _run(mode, rest)
    except Stopped:
        stopped = True
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.stdout = real_stdout
    rec.close_open(time.perf_counter())
    text = captured.getvalue()
    rec.count("process.import_s", import_s)
    rec.count("cli.stdout_bytes", len(text.encode()))
    inst.count_cache_use()
    rec.dump(spans_path)
    inst.uninstall()
    sys.stdout.write(text)
    return 124 if stopped else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
