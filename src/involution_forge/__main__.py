"""``python -m involution_forge``: the command line of cli.main."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
