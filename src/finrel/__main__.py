"""``python -m finrel``: the command line without an installed entry point."""

from .cli import main

if __name__ == "__main__":
    main()
