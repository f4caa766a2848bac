"""Entry point for ``python -m repro``."""

from repro.cli import main

raise SystemExit(main())
