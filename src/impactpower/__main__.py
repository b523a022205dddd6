"""``python -m impactpower``: the same command line as the ``impactpower`` script."""

import sys

from .cli import main

sys.exit(main())
