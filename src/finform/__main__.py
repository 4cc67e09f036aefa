"""Run the command-line front end: ``python -m finform <command> ...``."""

import sys

from .cli import main

sys.exit(main())
