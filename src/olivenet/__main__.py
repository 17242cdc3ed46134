"""``python -m olivenet``: the same entry point as the ``olivenet`` script."""

import sys

from .cli import main

sys.exit(main())
