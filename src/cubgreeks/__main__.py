"""``python -m cubgreeks``: the command line, exiting with its code."""
from .cli import main

raise SystemExit(main())
