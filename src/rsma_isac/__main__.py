"""``python -m rsma_isac``: the same CLI as the ``rsma-isac`` script."""

import sys

from .cli import main

sys.exit(main())
