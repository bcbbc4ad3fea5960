"""The Cascade server as ``edit_tenants`` runs it, in its own process.

The same daemon ``python -m repro.server`` starts, on a loopback port
chosen by the OS, with the session settings the workload needs (see
``edit_tenants.SERVER``).  Prints ``ready <port>`` once it accepts
connections.  On SIGTERM it drains like the stock entry point; with
``--spans PATH`` it first wraps the layer boundaries (the traced run)
and on exit writes their totals and a raw-span sample to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True,
                        help="JSON: CascadeServer keyword arguments")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    harness.ensure_source_tree()

    recorder = None
    if args.spans:
        from spans import Recorder, install
        recorder = Recorder()
        install(recorder, server=True)

    from repro.backend.compilequeue import shutdown_shared_pools
    from repro.server import CascadeServer

    server = CascadeServer(address=("127.0.0.1", 0),
                           **json.loads(args.config)).start()
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: done.set())
    print(f"ready {server.address[1]}", flush=True)
    done.wait()
    dropped = server.stats()["dropped_outputs"]
    server.shutdown(drain=True)
    shutdown_shared_pools()
    if recorder is not None:
        snap = recorder.snapshot()
        snap["counts"]["server.dropped_outputs"] = dropped
        snap["raw"] = [(name, tid, start - recorder.epoch, dur, own)
                       for name, tid, start, dur, own in recorder.raw]
        harness.write_json(args.spans, snap)
    return 0


if __name__ == "__main__":
    sys.exit(main())
