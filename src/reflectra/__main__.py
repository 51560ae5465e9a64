"""Run the command-line front end as ``python -m reflectra``."""

from .cli import main

if __name__ == "__main__":
    main()
