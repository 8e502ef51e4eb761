"""Run a ``StubChatServer`` in its own process until interrupted.

Usage: ``python stub_main.py --delay SECONDS --port 0 --port-file PATH``
(with ``src`` on ``PYTHONPATH``).  The bound port is written to
``--port-file`` once the server is listening.
"""

from __future__ import annotations

import argparse
import signal
import threading
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delay", type=float, required=True,
                        help="fixed service time per request, seconds")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args()

    from repro.llm.stub import StubChatServer

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_args: stop.set())
    with StubChatServer(port=args.port,
                        response_delay=args.delay) as server:
        Path(args.port_file).write_text(f"{server.port}\n")
        stop.wait()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
