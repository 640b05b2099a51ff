"""Entry point for ``python -m loopspace``."""

from .cli import run

run()
