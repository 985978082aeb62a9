"""`python -m sgk ...` runs the `sgk` command line (see sgk.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
