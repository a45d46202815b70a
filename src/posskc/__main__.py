"""``python -m posskc``: the command line front end of ``posskc.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
