"""``python -m pgquant``: the ``pgquant`` command line."""

from .cli import run_main

if __name__ == "__main__":
    run_main()
