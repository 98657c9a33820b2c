#!/usr/bin/env python3
"""Regenerate both figure datasets (CSV) with the default parameter grids.

Output lands in $RINDLER_TELEPORT_OUTDIR if set, else the working directory.
Any extra arguments are forwarded to both commands, e.g.::

    python scripts/make_figure_data.py --a-steps 80
"""

import sys

from rindler_teleport.cli import main

if __name__ == "__main__":
    extra = sys.argv[1:]
    status = main(["fig4", *extra]) or main(["fig5", *extra])
    sys.exit(status)
