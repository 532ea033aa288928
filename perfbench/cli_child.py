"""Traced stand-in for ``python -m bountygame.cli`` in the traced run.

Usage: ``python cli_child.py SPANS_OUT <cli arguments...>``. Times the
import of ``bountygame.cli``, wraps the public names the CLI looks up in
its own module (and ``condition1`` where the vendor optimizers find it),
runs ``bountygame.cli.main`` on the arguments, and writes the spans as one
JSON list to SPANS_OUT at exit. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        cli = tracer.call("cli.import", __import__, "bountygame.cli", fromlist=["main"])
        from workloads import wrap_lookups

        wrap_lookups(tracer, cli)
        tracer.wrap(cli, "load_scenario", "cli.load_scenario")
        tracer.wrap(sys.modules.get("bountygame.vendor"), "condition1", "vendor.condition1")
        return tracer.call(f"cli.{argv[0]}", cli.main, argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(list(tracer.spans()), handle)


if __name__ == "__main__":
    sys.exit(main())
