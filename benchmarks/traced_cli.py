"""Run one ``hoarefine`` CLI command with tracing on, then write its spans.

Usage: python benchmarks/traced_cli.py SPANS.json <hoarefine arguments>

The traced counterpart of ``python -m hoarefine.cli``: same command
line after the spans path, same exit code.
"""

import sys

import tracing
from hoarefine import cli

if __name__ == "__main__":
    rec = tracing.Recorder()
    tracing.install(rec)
    code = cli.main(sys.argv[2:])
    rec.dump(sys.argv[1])
    sys.exit(code)
