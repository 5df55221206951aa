"""``python -m equifit``: the same command line as the ``equifit`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
