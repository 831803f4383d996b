"""`python -m moprompt` runs the command line interface."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
