"""Run the morfo CLI like the ``morfo`` console script, then report peak memory.

Usage: python launch.py <morfo arguments>

After the command finishes, the process's own peak resident set size
(``VmHWM`` from /proc/self/status, in kB) is written as the last line of
stderr, as ``VmHWM <kB>``. Reading it in the child keeps the parent's memory
out of the figure, which ``ru_maxrss`` from ``os.wait4`` would not.
"""

import sys

from morfo.cli import run


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    code = run(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(f"VmHWM {peak_rss_kb()}\n")
    sys.exit(code)
