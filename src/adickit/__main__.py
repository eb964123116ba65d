import sys

from .cli import run_process

sys.exit(run_process())
