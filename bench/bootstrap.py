"""Traced CLI entry for the ``cli_cold`` workload.

    python3 bench/bootstrap.py SPANS.npz --config ... [delta-eita arguments]

Imports the CLI, installs the span wrappers, runs ``cli.main`` with the
remaining arguments, writes the spans to SPANS.npz and exits with the
CLI's exit code.  Pool children inherit the wrappers, but their spans
stay in the children and are not collected.
"""

import sys

from delta_eita import cli

import spans

if __name__ == "__main__":
    tracer = spans.Tracer().install()
    code = cli.main(sys.argv[2:])
    tracer.uninstall()
    tracer.dump(sys.argv[1])
    sys.exit(code)
