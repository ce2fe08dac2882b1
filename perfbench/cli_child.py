"""Traced ``regkit`` command line, one process per op.

    python3 perfbench/cli_child.py ARGS...

Runs ``regkit.cli.main(ARGS)`` like ``python -m regkit ARGS`` does, with
``import regkit.cli`` timed and the layer wrappers installed.  The CLI's
stdout is left untouched so the caller can check it byte for byte; the
spans go to stderr as the last line, after the marker.
"""

import json
import sys

import spans


def main():
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        import regkit.cli
    with spans.patched(tracer):
        with tracer.span("cli.main"):
            code = regkit.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(spans.SPANS_MARKER + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
