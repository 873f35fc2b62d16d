"""Regulator process for the regulator_tcp workload.

Usage: python3 perfbench/regserver.py AUDIT_PATH [--trace PATH] [--cpus 0,1]
(with PYTHONPATH=src)

Starts ``netsvc.RegulatorServer`` on an ephemeral loopback port, prints the
port on one line, serves until its standard input closes, then stops the
server (which waits for its session threads and closes the audit log) and
prints its own peak resident set size in MB. With
--trace the public dpalarm functions are traced and the spans written to PATH;
with --cpus the process runs on those CPUs only.
"""

import argparse
import logging
import os
import sys

from dpalarm import netsvc

from tracing import Tracer


def peak_rss_mb() -> float:
    """This process's own peak resident set size (VmHWM), in MB.

    ``ru_maxrss`` is not used: Linux carries it across exec, so it would
    include the resident size of whatever process started this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("audit_path")
    parser.add_argument("--trace", dest="trace_path")
    parser.add_argument("--cpus")
    args = parser.parse_args(argv)
    audit_path, trace_path = args.audit_path, args.trace_path
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    logging.getLogger("dpalarm.netsvc").setLevel(logging.ERROR)
    tracer = Tracer() if trace_path else None
    if tracer is not None:
        tracer.install()
    server = netsvc.RegulatorServer(("127.0.0.1", 0), netsvc.RegulatorConfig(audit_path))
    server.start_background()
    print(server.address[1], flush=True)
    sys.stdin.read()
    server.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.table().save(trace_path)
    print(peak_rss_mb(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
