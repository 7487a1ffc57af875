"""`python -m specret`: the command-line driver (same as the `specret` script)."""
import sys

from .cli import main

sys.exit(main())
