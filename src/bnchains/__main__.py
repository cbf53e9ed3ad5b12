"""``python -m bnchains``: the same command line as ``bnchains``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
