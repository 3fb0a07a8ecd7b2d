"""``python -m otfsim``: the command line of :mod:`otfsim.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()
