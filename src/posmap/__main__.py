"""``python -m posmap``: the same entry point as the ``posmap`` console script."""

import sys

from .cli import main

sys.exit(main())
