"""Entry point for ``python -m repro``."""

from repro.cli import entry

raise SystemExit(entry())
