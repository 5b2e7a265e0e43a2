"""``python -m exkh``: the command line, as the ``exkh`` script runs it."""

import sys

from .cli import main

sys.exit(main())
