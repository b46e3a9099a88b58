"""`python -m treemine`: the `treemine` command."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
