"""Open-loop query client for the ``serve-live`` workload.

One thread, one TCP connection: sends ``{"op": "estimates"}`` at a fixed
rate for a fixed time, then ``{"op": "shutdown"}``.  Prints one JSON line
``{"queries": [[latency_s, lateness_s, ok], ...], "calibrations": [...]}``,
each query timed from when it was due.  In the gap after each answer the
client times ``harness.calibrate()`` when that fits before the next query,
so the session is rescaled by how fast the machine ran all through it.
Imports only the standard library and the harness, so it starts fast and
shares nothing with the service.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys

from harness import calibrate, open_loop

#: Calibrate only when the next query is due at least this much later.
CALIBRATION_ROOM_S = 0.1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    with socket.create_connection(("127.0.0.1", args.port), timeout=60) as sock:
        replies = sock.makefile("rb")

        def estimates() -> bool:
            sock.sendall(b'{"op": "estimates"}\n')
            line = replies.readline()
            return bool(line) and json.loads(line).get("ok") is True

        calibrations = []

        def idle(left: float) -> None:
            if left >= CALIBRATION_ROOM_S:
                calibrations.append(calibrate())

        queries = open_loop(estimates, args.rate, args.seconds, idle=idle)
        sock.sendall(b'{"op": "shutdown"}\n')
        replies.readline()
    print(json.dumps({"queries": queries, "calibrations": calibrations}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
