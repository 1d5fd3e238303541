"""Start the benchmark's processes one at a time and report on each.

    python3 bench/launch.py

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout":
PATH, "cwd": DIR, "env": {...}}``, runs it to completion and answers with
one JSON line, ``{"wall_s": ..., "rss_mib": ..., "exit_code": ...}``.  It
exits at the end of stdin.

A child's ``ru_maxrss`` starts from the resident size of the process that
forked it.  The benchmark holds parsed outputs and grows past the CLI's own
peak, so it starts this small process first and lets it fork the commands.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, cwd=request["cwd"], env=request["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "rss_mib": usage.ru_maxrss / 1024, "exit_code": proc.returncode}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
