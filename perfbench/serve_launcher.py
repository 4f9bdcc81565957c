"""Traced ``repro-a2a serve``: install the server-side span wrappers,
then hand control to ``repro.cli``.

Usage: ``python3 perfbench/serve_launcher.py SPANS.json serve ...``.
The process layout is the untraced one -- one server process -- and the
spans recorded in it are written to ``SPANS.json`` when ``serve``
returns.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from common import import_program  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    import_program()
    from repro.cli import main as cli_main

    tracer = tracing.Tracer()
    tracing.install_server(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
