"""Run one command as a child process; report its wall time, peak RSS and CPU speed.

Usage: python3 launch.py RESULT.json STDOUT STDERR TIMEOUT_S -- CMD...

The benchmark harness starts every timed command through this small
process instead of directly. On Linux a child's ru_maxrss also counts the
memory of the process it was forked from, so a child started from the
harness (which holds parsed outputs and numpy) would report the harness's
size; started from here it can only inherit this launcher's few MB.

The launcher pins itself, and so the child, to one CPU. While the child
runs, a probe thread on the same CPU times a fixed pure-Python loop every
PROBE_PAUSE_S and keeps the loop's thread CPU time. The CPU's speed on a
shared machine drifts by tens of percent over seconds to minutes, and the
probe slows down and speeds up with the child, so the harness can rescale
the child's wall time to a fixed reference speed. The probe takes about 3 %
of the CPU.

Writes {"wall_s", "peak_rss_mb", "cpu_s", "probe_ms", "probe_n", "exit_code",
"timed_out"} to RESULT.json.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

PROBE_LOOP = 20_000
PROBE_PAUSE_S = 0.05


def probe(stop: threading.Event, samples: list) -> None:
    while True:
        start = time.thread_time()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i % 7
        samples.append(time.thread_time() - start)
        if stop.wait(PROBE_PAUSE_S):
            return


def main(argv):
    result_path, stdout_path, stderr_path, timeout_raw, sep, *cmd = argv
    if sep != "--" or not cmd:
        print("usage: launch.py RESULT STDOUT STDERR TIMEOUT -- CMD...", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    samples: list[float] = []
    stop = threading.Event()
    prober = threading.Thread(target=probe, args=(stop, samples))
    timed_out = False
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        prober.start()
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=err)

        def kill(signum, frame):
            nonlocal timed_out
            timed_out = True
            child.kill()

        signal.signal(signal.SIGALRM, kill)
        signal.alarm(max(1, int(float(timeout_raw))))
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        stop.set()
        prober.join()
        child.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "wall_s": wall,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "probe_ms": 1000.0 * statistics.median(samples),
                "probe_n": len(samples),
                "exit_code": child.returncode,
                "timed_out": timed_out,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
