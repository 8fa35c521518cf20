"""`python -m fsclass <command> --kind <kind> [options] input.json` runs
the command-line front end, as the `fsclass` script does."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
