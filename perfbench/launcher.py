"""Starts the benchmark's processes on behalf of ``run.py``.

    python3 launcher.py

Reads one JSON request per line on stdin -- ``cmd``, ``cwd``, ``stdout``,
``stderr``, ``limit``, ``traced`` -- runs the command with its output going to
the two files, stops it at ``limit`` seconds and writes one JSON line back:
``latency`` (spawn to exit), ``code``, ``rss_kb`` (ru_maxrss from wait4) and
``timed_out``.  It exits when stdin closes.

Jobs are started from this small process rather than from ``run.py`` because
Linux folds the peak RSS of the process a child is spawned from into the
child's ru_maxrss when the child execs.  ``run.py`` grows while its oracles
parse large outputs; this process stays at a few MB, below every job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(req: dict) -> dict:
    done, fired = threading.Event(), threading.Event()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)

        def watch():
            if done.wait(req["limit"]):
                return
            fired.set()
            # A traced worker writes its spans on SIGTERM; kill if it hangs.
            proc.send_signal(signal.SIGTERM if req["traced"] else signal.SIGKILL)
            if req["traced"] and not done.wait(10):
                proc.send_signal(signal.SIGKILL)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            latency = time.perf_counter() - start
            done.set()
            watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"latency": latency, "code": proc.returncode,
            "rss_kb": usage.ru_maxrss, "timed_out": fired.is_set()}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
