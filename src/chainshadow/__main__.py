"""``python -m chainshadow``: the same command line as the ``chainshadow``
console script."""

from .cli import console_entry

console_entry()
