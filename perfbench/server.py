"""The serve_subs server process: the service behind its TCP front end.

Built the way ``ua-gpnm serve`` builds it — ``StreamingUpdateService``
with the default ``ServiceConfig()`` (no journal), one registered graph
and a ``ServiceServer`` with its default limits — except that the graph
comes from the benchmark's generated input file and the standing
patterns arrive from the client over TCP (``subscribe``), so the
client's clock covers spawn to the last subscription acknowledged.

Prints ``READY <port>`` on stdout once listening.  SIGTERM closes the
server, drains the service and exits 0.  With ``--trace-out`` the span
wrappers are installed before the service is built but stay disabled
until SIGUSR1, and the spans are written to that path on SIGTERM.

Usage::

    python3 perfbench/server.py --graph FILE --key KEY [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


async def serve(args: argparse.Namespace) -> None:
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer(enabled=False)
        tracer.install(tracing.ENGINE_TARGETS + tracing.SERVICE_TARGETS)

    from repro.graph.io import data_graph_from_dict
    from repro.service import ServiceConfig, ServiceServer, StreamingUpdateService

    data = data_graph_from_dict(json.loads(Path(args.graph).read_text(encoding="utf-8")))
    service = StreamingUpdateService(ServiceConfig())
    await service.register(args.key, data)
    server = ServiceServer(service, host="127.0.0.1", port=0)
    _host, port = await server.start()

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if tracer is not None:
        loop.add_signal_handler(signal.SIGUSR1, setattr, tracer, "enabled", True)
    print(f"READY {port}", flush=True)
    serve_task = asyncio.create_task(server.serve_forever())
    try:
        await stop.wait()
    finally:
        serve_task.cancel()
        try:
            await serve_task
        except asyncio.CancelledError:
            pass
        await server.close()
        await service.close()
        if tracer is not None:
            tracer.enabled = False
            tracer.dump(Path(args.trace_out))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True, help="data graph JSON (graph.io dict form)")
    parser.add_argument("--key", required=True, help="graph key to register")
    parser.add_argument("--trace-out", default=None, help="write spans here on SIGTERM")
    args = parser.parse_args()
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
