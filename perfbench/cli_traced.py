"""The ``momentbayes`` command with spans around every public function.

    python cli_traced.py SPANS_OUT <momentbayes arguments...>

Wraps the layers (see ``spans.install``), runs ``momentbayes.cli.main`` on the
remaining arguments, writes the spans to ``SPANS_OUT`` as JSON and exits with
the command's exit code.
"""

import json
import sys

import spans

from momentbayes import cli

if __name__ == "__main__":
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as out:
            json.dump(tracer.spans, out)
    sys.exit(code)
