"""``python -m gatedflow``: the gatedflow command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
