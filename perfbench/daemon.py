"""Launch the ``repro serve`` daemon in its own process for the benchmark.

Usage: ``python3 perfbench/daemon.py CONFIG_JSON [--trace DUMP_PATH]``

Runs the program's own ``run_server`` on an ephemeral localhost port and
prints its ready line, preceded by the time of the host-speed kernel
(``hostspeed``) in this process, which scales the daemon's set-up time.
With ``--trace`` the span wrappers are installed first; SIGUSR1 clears
the spans recorded so far (the benchmark sends it when its timed window
opens) and after the graceful SIGTERM drain the span summary and
per-request handler intervals are written to DUMP_PATH.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys

import common


async def _serve(config, tracer) -> int:
    from repro.serve.server import run_server

    if tracer is not None:
        asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, tracer.reset)
    return await run_server(config, host="127.0.0.1", port=0)


def main(argv: list[str]) -> int:
    common.use_program()
    from repro.serve import ServiceConfig

    config = ServiceConfig.from_dict(json.loads(argv[0]))
    dump = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    tracer = None
    if dump is not None:
        import spans

        tracer = spans.install()
    import hostspeed

    print(f"perfbench: kernel_s {hostspeed.kernel_s(runs=5)!r}", flush=True)
    code = asyncio.run(_serve(config, tracer))
    if tracer is not None:
        doc = {
            "summary": tracer.summary(),
            "requests": {str(k): v for k, v in tracer.requests.items()},
        }
        with open(dump, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
