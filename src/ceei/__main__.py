"""`python -m ceei`: one request, run and ended by `cli.console_entry`."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
