"""``repro serve`` with the benchmark's span wrappers installed.

Used by the traced run of ``service-mixed``: installs the same wrappers
as the load generator, serves until asked to stop, then writes the
daemon's spans (``CLOCK_MONOTONIC``, so they line up with the client's)
to ``--spans-out``.

    python3 perfbench/traced_daemon.py --socket PATH --spans-out FILE
"""

from __future__ import annotations

import argparse
import sys

import spans

from repro.service import CampaignDaemon  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    rec = spans.Recorder()
    spans.install(rec)
    daemon = CampaignDaemon(socket_path=args.socket)
    print(f"traced daemon serving on {args.socket}", file=sys.stderr)
    daemon.serve()
    rec.active = False
    rec.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
