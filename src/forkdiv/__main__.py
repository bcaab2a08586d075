"""`python -m forkdiv`: the same front end as the `forkdiv` console script."""

import sys

from .cli import main

sys.exit(main())
