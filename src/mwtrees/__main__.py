"""Module entry point so ``python -m mwtrees`` works like the console
script."""

from .cli import run

if __name__ == "__main__":
    run()
