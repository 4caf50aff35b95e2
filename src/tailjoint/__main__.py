"""``python -m tailjoint``: the command-line front end (see cli.py)."""

from .cli import main

raise SystemExit(main())
