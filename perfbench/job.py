"""One CLI job in a fresh interpreter: ``negbound.cli:main`` on the job's
arguments, then the process's peak resident memory written to a file.

    python -c "...; from perfbench.job import main; raise SystemExit(main(sys.argv[1:]))" \
        RSS_FILE SPANS_FILE|- TASK --config ... --format ...

``SPANS_FILE`` other than ``-`` runs the job traced (``trace.cli_job``).
``python -m negbound.cli`` is not used: it only imports the module.
Importing this module loads nothing a fresh interpreter has not loaded.
"""

from __future__ import annotations

import sys


def vm_hwm_kb() -> int:
    """Peak resident memory of this process's own address space (Linux
    ``VmHWM``).  ``getrusage`` would also count the memory of the process
    that started this one, which a child inherits across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(args: list[str]) -> int:
    rss_path, spans_path, argv = args[0], args[1], args[2:]
    try:
        if spans_path == "-":
            from negbound.cli import main as cli_main

            return cli_main(argv)
        from perfbench.trace import cli_job

        return cli_job(spans_path, argv)
    finally:
        with open(rss_path, "w", encoding="ascii") as fh:
            fh.write(str(vm_hwm_kb()))
