"""Run one `occgeom` command in this fresh interpreter with the tracer
installed, then write the spans to a JSON file.

    python3 bench/traced_cli.py SPANS.json -- selftrain --scene-dir DIR ...

The exit code is the command's. PYTHONPATH must point at the checkout's
`src` directory.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- COMMAND [ARGS...]")
    tracer = Tracer()
    tracer.install()
    from occgeom import cli

    tracer.op = 0
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as f:
            json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
