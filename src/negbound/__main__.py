"""``python -m negbound``: the ``negbound`` command line tool."""

from .cli import console_main

console_main()
