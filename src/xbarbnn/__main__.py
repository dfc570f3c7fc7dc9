"""`python -m xbarbnn <command>`: the same entry point as the `xbarbnn` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
